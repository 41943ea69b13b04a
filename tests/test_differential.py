"""Differential test: the closed form against the series oracle on random inputs.

Each example draws a rational 2x2 Gram matrix (nonsymmetric and degenerate
ones included), a module with random zero modes, elements with several terms
and a multi-term dual functional, then checks the closed-form matrix
coefficient of a product or an iterate against the direct series evaluation,
as in McKeeman, "Differential Testing for Software" (1998).

The module is two weight-graded copies of one random zero-mode module, at
weights w0 and w0 + 1; Dm maps the lower copy identically onto the upper one,
so it commutes with every zero-mode matrix.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from mosva.checks import verify_rationality_iterate, verify_rationality_product
from mosva.fields import (
    iterate_series_bruteforce,
    product_series_bruteforce,
    product_series_states,
    vertex_series,
)
from mosva.halgebra import HSpace, basis_words_up_to
from mosva.laurent import LaurentPoly
from mosva.modules import ModulePresentation, free_to_state, key_weight, pairing, state_to_free, validate_module
from mosva.ratfun import expand_in_region, ratfun_sum, uniform_window
from mosva.wick import product_table_raw

RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
NONZERO = st.builds(
    lambda p, neg, q: Fraction(-p if neg else p, q), st.integers(1, 3), st.booleans(), st.integers(1, 3)
)
WORDS = basis_words_up_to(2, 2)
LIGHT_WORDS = basis_words_up_to(2, 1)


@st.composite
def forms(draw):
    a, b, c, d = (draw(RATIONALS) for _ in range(4))
    kind = draw(st.sampled_from(["general", "symmetric", "degenerate"]))
    if kind == "symmetric":
        c = b
    elif kind == "degenerate":  # second row a multiple of the first
        t = draw(RATIONALS)
        c, d = t * a, t * b
    return HSpace.from_rows([[a, b], [c, d]])


@st.composite
def modules(draw):
    r = draw(st.integers(1, 2))
    w0 = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1)]))
    action = []
    for _ in range(2):
        block = [[draw(RATIONALS) for _ in range(r)] for _ in range(r)]
        action.append(
            [[block[s % r][t % r] if s // r == t // r else 0 for t in range(2 * r)]
             for s in range(2 * r)]
        )
    dm = [[1 if s == t + r else 0 for t in range(2 * r)] for s in range(2 * r)]
    return ModulePresentation.build([w0] * r + [w0 + 1] * r, action, dm)


def combos(keys, max_size):
    """Nonzero rational combinations of up to max_size distinct keys."""
    return st.lists(st.sampled_from(keys), min_size=1, max_size=max_size, unique=True).flatmap(
        lambda chosen: st.tuples(*[NONZERO] * len(chosen)).map(lambda cs: dict(zip(chosen, cs)))
    )


@st.composite
def cases(draw):
    h, mod = draw(forms()), draw(modules())
    n = draw(st.sampled_from([2, 2, 3]))
    words = WORDS if n == 2 else LIGHT_WORDS
    us = [draw(combos(words, 2)) for _ in range(n)]
    w = draw(combos([(wd, s) for wd in LIGHT_WORDS for s in range(mod.dim)], 2))
    f = draw(combos([(wd, s) for wd in WORDS for s in range(mod.dim)], 3))
    return h, mod, us, f, w


@settings(derandomize=True, deadline=None, max_examples=100)
@given(cases())
def test_closed_form_matches_oracle(case):
    h, mod, us, f, w = case
    assert validate_module(mod) == []
    window = (-5, 1) if len(us) == 2 else (-4, 1)
    failure = verify_rationality_product(h, mod, us, f, w, window)
    assert failure is None, failure
    if len(us) == 2:
        failure = verify_rationality_iterate(h, mod, *us, f, w, window)
        assert failure is None, failure
    # the bulk table at every basis pair up to a cap between two module
    # weights, the pairs it lacks included
    cap = mod.min_weight + Fraction(5, 2)
    raw = product_table_raw(h, mod, us, w, cap)
    assert all(key_weight(mod, key) <= cap for key in raw)
    names = tuple(f"z{j + 1}" for j in range(len(us)))
    win = uniform_window(names, *window)
    keys = [(wd, s) for wd in WORDS for s in range(mod.dim) if key_weight(mod, (wd, s)) <= cap]
    states = product_series_states(h, mod, us, w, {key_weight(mod, key) for key in keys}, win)
    for key in keys:
        series = LaurentPoly(names, {exps: elem.get(key, 0) for exps, elem in states.items()})
        assert expand_in_region(ratfun_sum(raw.get(key, [])), names, win) == series.align(names), key


def unpinned_iterate_series(h, mod, u1, u2, f, w, window):
    """The iterate series with the outer series taken over the whole x2 window."""
    triv = ModulePresentation.trivial(h.dim)
    inner = vertex_series(h, triv, u1, free_to_state(u2), *window["x0"])
    terms = {}
    for e0, velem in inner.items():
        for e2, elem in vertex_series(h, mod, state_to_free(velem), w, *window["x2"]).items():
            val = pairing(f, elem)
            if val:
                terms[(e0, e2)] = val
    return LaurentPoly(("x0", "x2"), terms)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(cases())
def test_weight_pinned_iterate_oracle_matches_unpinned(case):
    h, mod, us, f, w = case
    window = uniform_window(("x0", "x2"), -5, 1)
    pinned = iterate_series_bruteforce(h, mod, us[0], us[1], f, w, window)
    assert pinned == unpinned_iterate_series(h, mod, us[0], us[1], f, w, window)


def unpinned_product_series(h, mod, us, f, w, window):
    """The product series with each operator taken over its whole window."""
    names = [f"z{j + 1}" for j in range(len(us))]
    states = {(): w}
    for name, u in reversed(list(zip(names, us))):
        states = {
            (e,) + tail: elem
            for tail, state in states.items()
            for e, elem in vertex_series(h, mod, u, state, *window[name]).items()
        }
    return LaurentPoly(names, {exps: pairing(f, elem) for exps, elem in states.items()})


@settings(derandomize=True, deadline=None, max_examples=100)
@given(cases())
def test_weight_pinned_product_oracle_matches_unpinned(case):
    h, mod, us, f, w = case
    names = [f"z{j + 1}" for j in range(len(us))]
    window = uniform_window(names, -5, 1)
    pinned = product_series_bruteforce(h, mod, us, w, f, window)
    assert pinned == unpinned_product_series(h, mod, us, f, w, window)
