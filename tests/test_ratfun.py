"""Laurent polynomials and exact rational functions: arithmetic, canonical form,
region expansion and the iterate's change of variables."""

import random
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

import mosva.ratfun
from mosva.laurent import LaurentPoly, sort_vars
from mosva.ratfun import (
    RatFun,
    _expand_monomial,
    _over_common,
    expand_in_region,
    expand_iterate,
    expand_raw,
    parts_eq,
    pole_diff,
    ratfun_eq,
    ratfun_sum,
    uniform_window,
)
from mosva.scalars import NUMERATOR_TERMS

Z = ("z1", "z2")
X = ("x0", "x2")
DIFF12 = pole_diff("z1", "z2")[0]
# the (z1 + z2) factor that no expansion or RatFun takes
SUM12 = ("sum", "z1", "z2")


def lp(variables, terms):
    return LaurentPoly(variables, {e: Fraction(c) for e, c in terms.items()})


def one_over_diff(k=1):
    return RatFun(LaurentPoly.const(1, Z), {DIFF12: k})


def pole_poly(f, k, variables):
    """The polynomial (a - b)**k of the factor f = (a, b) over the given variables."""
    universe = sort_vars(tuple(variables) + f)
    a, b = f
    terms = {}
    c = 1  # (-1)^t binom(k, t), one row step per term
    for t in range(k + 1):
        exps = {a: k - t, b: t}
        terms[tuple(exps.get(v, 0) for v in universe)] = c
        c = -c * (k - t) // (t + 1)
    return LaurentPoly(universe, terms)


# -- Laurent polynomials -----------------------------------------------------


def test_laurent_equality_aligns_variables_and_refuses_hashing():
    # equal across variable universes, so a hash of (vars, terms) would split them
    short, wide = lp(("z1",), {(1,): 1}), lp(Z, {(1, 0): 1})
    assert short == wide
    with pytest.raises(TypeError):
        {short, wide}


def test_laurent_rejects_repeated_variables():
    with pytest.raises(ValueError):
        LaurentPoly(("z1", "z1"), {(1, 2): 1})
    with pytest.raises(ValueError):
        LaurentPoly.zero(("z2", "z1", "z2"))
    # out of canonical order, an exponent vector would be read against the
    # wrong variables
    with pytest.raises(ValueError):
        LaurentPoly(("z2", "z1"), {(1, 2): 1})


# -- arithmetic -------------------------------------------------------------


def minus(r, s):
    return ratfun_sum([(r.poles, r.numer), (s.poles, s.numer * LaurentPoly.const(-1))])


def times(r, s):
    poles = dict(r.poles)
    for f, k in s.poles.items():
        poles[f] = poles.get(f, 0) + k
    return RatFun(r.numer * s.numer, poles)


def test_add_zero_is_identity():
    r = RatFun(lp(Z, {(1, 0): 3}), {DIFF12: 2})
    assert r + RatFun.zero() == r


def test_add_cross_multiplies():
    # 1/(z1-z2) + 1/z1 = (2*z1 - z2) / (z1 * (z1 - z2)), worked by hand; the
    # z1 = 0 pole is the numerator's z1^-1
    a = one_over_diff()
    b = RatFun(lp(("z1",), {(-1,): 1}))
    out = a + b
    assert out.numer == lp(Z, {(0, 0): 2, (-1, 1): -1})
    assert out.poles == {DIFF12: 1}
    assert out.render() == "(2*z1 - z2) / (z1^1 * (z1 - z2)^1)"


def test_sub_self_is_zero():
    r = RatFun(lp(Z, {(2, 1): 5, (0, -1): 1}), {DIFF12: 3})
    assert minus(r, r).is_zero()


# -- canonical form ---------------------------------------------------------


def test_canonicalize_cancels_common_factor():
    r = RatFun(lp(Z, {(1, 0): 1, (0, 1): -1}), {DIFF12: 2})
    assert r.numer == LaurentPoly.const(1, Z)
    assert r.poles == {DIFF12: 1}


def test_canonicalize_zero():
    r = RatFun(LaurentPoly.zero(Z), {DIFF12: 2})
    assert r.is_zero()
    assert r.poles == {}


def test_canonicalize_division_oracle():
    # (z1*z2 - z2^2) / (z1-z2)^2 -> z2 / (z1-z2); checked by multiplying back
    numer = lp(Z, {(1, 1): 1, (0, 2): -1})
    r = RatFun(numer, {DIFF12: 2})
    assert r.numer == lp(Z, {(0, 1): 1})
    assert r.poles == {DIFF12: 1}
    assert r.numer * pole_poly(DIFF12, 1, Z) == numer


def test_canonicalize_idempotent():
    r = RatFun(lp(Z, {(0, 0): 1, (-1, 1): -1}), {DIFF12: 1})
    again = RatFun(r.numer, r.poles)
    assert again.numer == r.numer and again.poles == r.poles


def test_ratfun_refuses_sum_poles():
    # a RatFun holds canonical difference pairs only, and the sums of parts
    # behind it refuse to clear an (a + b)
    for factor in (SUM12, ("z2", "z1"), ("z1",), ("z1", "z1")):
        with pytest.raises(ValueError):
            RatFun(LaurentPoly.const(1, Z), {factor: 1})
    with pytest.raises(ValueError):
        parts_eq([({SUM12: 1}, LaurentPoly.const(1, Z))], [({SUM12: 2}, lp(Z, {(1, 0): 1, (0, 1): 1}))])


def test_negative_exponents_fold_into_var_poles():
    # z1 is a unit: its negative exponents stay in the numerator, and print
    # as a var pole
    r = RatFun(lp(Z, {(-1, 0): 1, (-2, 1): -1}), {DIFF12: 2})
    assert r.poles == {DIFF12: 1}
    assert r.numer == lp(Z, {(-2, 0): 1})
    assert r.render() == "1 / (z1^2 * (z1 - z2)^1)"
    assert r.to_json()["poles"] == [
        {"kind": "var", "var": "z1", "exponent": 2},
        {"kind": "diff", "a": "z1", "b": "z2", "exponent": 1},
    ]
    assert r.to_json()["numerator"]["terms"] == [{"exponents": [0, 0], "coeff": "1"}]


# -- equality ---------------------------------------------------------------


def test_eq_reflexive():
    assert ratfun_eq(one_over_diff(2), one_over_diff(2))


def test_eq_sign_convention():
    # 1/(z1-z2) vs 1/(z2-z1): differ by a sign
    factor, sign = pole_diff("z2", "z1")
    assert factor == DIFF12 and sign == -1
    other = RatFun(LaurentPoly.const(sign, Z), {factor: 1})
    assert not ratfun_eq(one_over_diff(), other)
    assert ratfun_eq(RatFun(LaurentPoly.const(-1, Z), {DIFF12: 1}), other)


def test_eq_factors_cancel():
    r = RatFun(lp(Z, {(2, 0): 1, (0, 2): -1}), {DIFF12: 1})
    assert ratfun_eq(r, RatFun(lp(Z, {(1, 0): 1, (0, 1): 1})))


def test_eq_on_equal_poles_compares_numerators():
    r = RatFun(lp(Z, {(1, 0): 1}), {DIFF12: 2})
    s = RatFun(lp(Z, {(0, 1): 1}), {DIFF12: 2})
    assert r.poles == s.poles
    assert not ratfun_eq(r, s) and not ratfun_eq(s, r)
    # the same numerator over a wider variable universe is equal
    assert ratfun_eq(r, RatFun(lp(VARS3, {(1, 0, 0): 1}), {DIFF12: 2}))


def test_eq_on_unequal_poles():
    assert not ratfun_eq(one_over_diff(1), one_over_diff(2))
    assert not ratfun_eq(one_over_diff(2), one_over_diff(1))
    assert not ratfun_eq(RatFun.zero(), one_over_diff(1))
    # (z1 - z2)/(z1 - z2)^2 canonicalizes to 1/(z1 - z2): equal poles again
    assert ratfun_eq(RatFun(lp(Z, {(1, 0): 1, (0, 1): -1}), {DIFF12: 2}), one_over_diff(1))


def test_a_lone_part_is_its_canonical_form():
    # the numerator z1 (z1 - z2) shares one factor with (z1 - z2)^2
    part = ({DIFF12: 2}, lp(Z, {(2, 0): 1, (1, 1): -1}))
    lone = ratfun_sum([part])
    assert (lone.numer, lone.poles) == (lp(Z, {(1, 0): 1}), {DIFF12: 1})
    assert ratfun_sum(iter([part])) == lone
    assert ratfun_sum([]).is_zero()


def test_parts_eq_ignores_how_poles_are_split():
    # (z1 - z2) / (z1 - z2)^2 against 1 / (z1 - z2)
    lhs = [({DIFF12: 2}, lp(Z, {(1, 0): 1, (0, 1): -1}))]
    assert parts_eq(lhs, [({DIFF12: 1}, LaurentPoly.const(1, Z))])
    assert parts_eq([({DIFF12: 1}, LaurentPoly.const(1, Z))], lhs)


def test_parts_eq_sees_one_scalar():
    base = [({DIFF12: 1}, LaurentPoly.const(1, Z)), ({}, lp(Z, {(-2, 1): 3}))]
    off = [base[0], ({}, lp(Z, {(-2, 1): 4}))]
    assert parts_eq(base, base[::-1])
    assert not parts_eq(base, off)
    assert not parts_eq(off, base)


def test_parts_eq_empty_side_is_zero():
    cancelling = [
        ({DIFF12: 2}, lp(Z, {(1, 0): 1, (0, 1): -1})),
        ({DIFF12: 1}, LaurentPoly.const(-1, Z)),
    ]
    assert parts_eq([], [])
    assert parts_eq([], cancelling)
    assert parts_eq(cancelling, [])
    assert not parts_eq([], cancelling[:1])


def test_diff_double_negation_round_trip():
    f1, s1 = pole_diff("z2", "z1")
    f2, s2 = pole_diff(*f1)
    assert f2 == f1 and s1 == -1 and s2 == 1


# -- region expansion --------------------------------------------------------


def test_expand_binomial_series():
    out = expand_in_region(
        one_over_diff(2), ("z1", "z2"), {"z1": (-4, -2), "z2": (0, 2)}
    )
    assert out == lp(Z, {(-2, 0): 1, (-3, 1): 2, (-4, 2): 3})


def test_expand_pure_var_pole():
    r = RatFun(lp(("z1",), {(-1,): 1}))
    out = expand_in_region(r, ("z1",), {"z1": (-3, 3)})
    assert out == lp(("z1",), {(-1,): 1})


def test_expand_iterate_substitution_collapses_diff():
    # (z1-z2)^-1 becomes exactly x0^-1 after z1 -> x2+x0, z2 -> x2
    r = one_over_diff()
    out = expand_iterate(r.numer, r.poles, {"x0": (-2, 2), "x2": (-2, 2)})
    assert out == lp(X, {(-1, 0): 1})


def test_expand_region_must_cover_variables():
    with pytest.raises(ValueError):
        expand_in_region(one_over_diff(), ("z1",), {"z1": (-2, 2)})


def test_expand_reversed_region_flips_expansion_variable():
    out = expand_in_region(
        one_over_diff(1), ("z2", "z1"), {"z1": (0, 2), "z2": (-4, 0)}
    )
    # (z1-z2)^-1 = -(z2-z1)^-1 expands in nonnegative powers of z1
    assert out == lp(Z, {(0, -1): -1, (1, -2): -1, (2, -3): -1})


Z3 = ("z1", "z2", "z3")


def test_three_factor_expansion_bounds_each_term(monkeypatch):
    # 1/((z1-z2)(z1-z3)(z2-z3))^2 in |z1| > |z2| > |z3| at [-60, 0]: a kernel
    # that cuts only the whole product to the window makes 376,941 accumulations
    _expand_monomial.cache_clear()
    accumulations = []
    add_into = mosva.ratfun.add_into

    def counted(acc, key, coeff):
        accumulations.append(key)
        add_into(acc, key, coeff)

    monkeypatch.setattr(mosva.ratfun, "add_into", counted)
    poles = {pole_diff(a, b)[0]: 2 for a, b in [("z1", "z2"), ("z1", "z3"), ("z2", "z3")]}
    out = expand_in_region(RatFun(LaurentPoly.const(1, Z3), poles), Z3, uniform_window(Z3, -60, 0))
    assert out == lp(Z3, {(-6, 0, 0): 3, (-5, -1, 0): 2, (-4, -2, 0): 1})
    assert 0 < len(accumulations) <= 1000


# Numerator exponents are at most 3 and window floors at least -6.  The top
# region variable is never the small one, so its factors' series indices sum
# to at most 3 - 1 + 6 = 8; the middle variable gains at most those 8 and its
# own indices sum to at most 3 + 8 - 1 + 6 = 16.  Order 20 is generous.
REF_ORDER = 20


def naive_expansion(exps, poles, region, window):
    """exps / prod(poles) in |region[0]| > |region[1]| > |region[2]| > 0, with
    each pole factor's geometric series multiplied in to REF_ORDER terms and
    the window cut once at the end."""
    rank = {v: i for i, v in enumerate(region)}
    slot = {v: i for i, v in enumerate(Z3)}
    terms = {tuple(exps): 1}  # integer coefficients throughout
    for (a, b), k in poles.items():
        big, small = sorted((a, b), key=rank.get)
        # f = s * (big - small), so f^-k = s^k big^-k (1 - small/big)^-k
        s = -1 if big == b else 1
        series = [
            ({big: -k - t, small: t}, s ** k * comb(k - 1 + t, t))
            for t in range(REF_ORDER + 1)
        ]
        nxt = {}
        for e, coeff in terms.items():
            for shift, sc in series:
                vec = list(e)
                for v, d in shift.items():
                    vec[slot[v]] += d
                nxt[tuple(vec)] = nxt.get(tuple(vec), 0) + coeff * sc
        terms = nxt
    inside = {
        e: coeff for e, coeff in terms.items()
        if coeff and all(window[v][0] <= x <= window[v][1] for v, x in zip(Z3, e))
    }
    return LaurentPoly(Z3, inside)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_expand_raw_matches_naive_series_reference(seed):
    rng = random.Random(seed)
    for case in range(300):
        # down to -5, so poles at z_i = 0 of order up to 3 are drawn too
        exps = [rng.randint(-5, 3) for _ in Z3]
        poles = {}
        for _ in range(rng.randint(1, 4)):
            poles[pole_diff(*rng.sample(Z3, 2))[0]] = rng.randint(1, 3)
        region = tuple(rng.sample(Z3, 3))
        window = {}
        for v in Z3:
            lo = rng.randint(-6, 0)
            window[v] = (lo, rng.randint(lo, 4))
        got = expand_raw(LaurentPoly(Z3, {tuple(exps): 1}), poles, region, window)
        assert got == naive_expansion(exps, poles, region, window), (case, exps, poles, region, window)


def test_expand_raw_refuses_sum_poles():
    # its kernel would take (z1 + z2) for a difference and expand it wrongly
    with pytest.raises(ValueError):
        expand_raw(LaurentPoly.const(1, Z), {SUM12: 1}, Z, uniform_window(Z, -2, 2))


# -- the iterate's change of variables -----------------------------------------


def test_substitute_var_pole_to_sum_factor():
    # 1/z1 is 1/(x2+x0) = sum (-1)^t x2^(-1-t) x0^t for |x2|>|x0|, the
    # geometric series
    window = {"x0": (0, 3), "x2": (-4, 0)}
    out = expand_iterate(lp(("z1",), {(-1,): 1}), {}, window)
    expect = {(t, -1 - t): (-1) ** t for t in range(4)}
    assert out == lp(X, expect)
    # multiplying the truncated series by (x2+x0) gives 1 up to window edge
    prod = out * lp(X, {(1, 0): 1, (0, 1): 1})
    assert prod.filter_window({"x0": (0, 3), "x2": (-3, 0)}) == lp(X, {(0, 0): 1})


def test_iterate_vars_expands_numerator_binomially():
    # z1^2 z2 = (x2 + x0)^2 x2, a polynomial that expands to itself
    numer = lp(Z, {(2, 1): 1})
    assert expand_iterate(numer, {}, uniform_window(X, -4, 4)) == lp(
        X, {(2, 1): 1, (1, 2): 2, (0, 3): 1}
    )
    # cut to the window
    assert expand_iterate(numer, {}, {"x0": (0, 1), "x2": (0, 3)}) == lp(
        X, {(1, 2): 2, (0, 3): 1}
    )


# poles at z3 = 0, at z1 = z3 and at z1 = -z2, as (poles, numerator) parts
@pytest.mark.parametrize("pole", [
    ({}, lp(Z3, {(0, 0, -1): 1})),
    ({pole_diff("z1", "z3")[0]: 1}, LaurentPoly.const(1, Z)),
    ({SUM12: 1}, LaurentPoly.const(1, Z)),
])
def test_iterate_vars_rejects_other_poles(pole):
    poles, numer = pole
    with pytest.raises(ValueError):
        expand_iterate(numer, poles, uniform_window(X, -2, 2))


# -- rendering ----------------------------------------------------------------


def test_render_polynomial_only():
    assert RatFun(lp(Z, {(1, 0): 2, (0, 1): -1})).render() == "2*z1 - z2"


def test_render_single_term_numerator():
    assert one_over_diff(2).render() == "1 / ((z1 - z2)^2)"


def test_json_round_mirror():
    j = one_over_diff(2).to_json()
    assert j["poles"] == [{"kind": "diff", "a": "z1", "b": "z2", "exponent": 2}]
    assert j["numerator"]["terms"] == [{"exponents": [0, 0], "coeff": "1"}]


# -- property tests -----------------------------------------------------------

VARS3 = ("z1", "z2", "z3")


@st.composite
def ratfuns(draw, max_vars=3):
    nvars = draw(st.integers(2, max_vars))
    names = VARS3[:nvars]
    nterms = draw(st.integers(1, 3))
    terms = {}
    for _ in range(nterms):
        # a z_i = 0 pole is a negative exponent
        e = tuple(draw(st.integers(-2, 2)) for _ in names)
        c = draw(st.integers(-4, 4))
        if c:
            terms[e] = Fraction(c)
    if not terms:
        terms[(0,) * nvars] = Fraction(1)
    poles = {}
    for a, b in [("z1", "z2"), ("z1", "z3"), ("z2", "z3")][: nvars - 1]:
        k = draw(st.integers(0, 2))
        if k:
            poles[pole_diff(a, b)[0]] = k
    return RatFun(LaurentPoly(names, terms), poles)


def leading_exponent(r, region):
    """Lex-greatest exponent of the expansion of a nonzero canonical r.

    Each pole-factor series attains its lex-max at its t=0 term (exponent -N
    on the region-bigger variable), and the numerator at its lex-max monomial;
    the product of these unique maxima cannot cancel.
    """
    rank = {v: i for i, v in enumerate(region)}
    lead = {v: 0 for v in region}
    for (a, b), k in r.poles.items():
        lead[a if rank[a] < rank[b] else b] -= k
    numer_lead = max(
        tuple(e[r.numer.vars.index(v)] if v in r.numer.vars else 0 for v in region)
        for e in r.numer.terms
    )
    return tuple(l + x for l, x in zip((lead[v] for v in region), numer_lead))


@settings(max_examples=60, deadline=None)
@given(ratfuns(), ratfuns())
def test_property_eq_agrees_with_expansion(r, s):
    region = tuple(v for v in VARS3 if v in set(r.numer.vars) | set(s.numer.vars)) or ("z1",)
    diff = minus(r, s)
    if ratfun_eq(r, s):
        window = uniform_window(region, -6, 6)
        assert expand_in_region(r, region, window) == expand_in_region(s, region, window)
    else:
        e = leading_exponent(diff, region)
        window = {v: (x - 1, x + 1) for v, x in zip(region, e)}
        out = expand_in_region(diff, region, window)
        assert dict(out.terms).get(tuple(e)) not in (None, 0)


@settings(max_examples=60, deadline=None)
@given(ratfuns(), ratfuns())
def test_property_expansion_multiplicative(r, s):
    region = tuple(v for v in VARS3 if v in set(r.numer.vars) | set(s.numer.vars)) or ("z1",)
    window = uniform_window(region, -4, 4)
    wide = uniform_window(region, -14, 14)
    lhs = expand_in_region(times(r, s), region, window)
    rhs = expand_in_region(r, region, wide) * expand_in_region(s, region, wide)
    assert lhs == rhs.align(lhs.vars).filter_window(window)


@settings(max_examples=60, deadline=None)
@given(ratfuns())
def test_property_canonicalize_idempotent(r):
    c1 = RatFun(r.numer, r.poles)
    c2 = RatFun(c1.numer, c1.poles)
    assert c1.numer == c2.numer and c1.poles == c2.poles


def evaluate(poles, numer, point):
    """Exact value of numer / prod(poles) at a point off its poles, given as
    {variable: value}."""
    value = sum(
        (c * prod(point[v] ** k for v, k in zip(numer.vars, e)) for e, c in numer.terms.items()),
        Fraction(0),
    )
    for (a, b), k in poles.items():
        value /= (point[a] - point[b]) ** k
    return value


nonzero_rationals = st.fractions(-5, 5, max_denominator=7).filter(bool)


def iterate_image(r):
    """A canonical r(z1, z2) as numerator and denominator polynomials over X.

    With z1^-p and z2^-q the lowest powers in r's numerator, z1^p z2^q times
    it maps monomial by monomial, z1^a z2^b to sum_t C(a, t) x0^t x2^(a-t+b),
    over the image (x2 + x0)^p x2^q x0^k of z1^p z2^q (z1 - z2)^k.
    """
    numer = r.numer.align(Z)
    p, q = (max(0, -numer.min_exp(v)) for v in Z)
    terms = {}
    for (a, b), c in numer.terms.items():
        a, b = a + p, b + q
        for t in range(a + 1):
            terms[(t, a - t + b)] = terms.get((t, a - t + b), 0) + c * comb(a, t)
    k = r.poles.get(DIFF12, 0)
    denominator = lp(X, {(t + k, p - t + q): comb(p, t) for t in range(p + 1)})
    return lp(X, terms), denominator


@settings(max_examples=100, deadline=None)
@given(ratfuns(max_vars=2), nonzero_rationals, nonzero_rationals)
def test_property_iterate_vars_agrees_pointwise(r, a, b):
    # z1 = x2 + x0, z2 = x2 at x2 = a, x0 = b; a, b and a + b keep off every pole
    assume(a + b)
    numer, denominator = iterate_image(r)
    at = {"x0": b, "x2": a}
    assert evaluate(r.poles, r.numer, {"z1": a + b, "z2": a}) == evaluate({}, numer, at) / evaluate(
        {}, denominator, at
    )
    # the expansion times the image's denominator is the image's numerator,
    # wherever the series cut at the window floor cannot reach
    window = uniform_window(X, -8, 8)
    out = expand_iterate(r.numer, r.poles, window)
    inner = {v: (-8 + max(e[i] for e in denominator.terms), 8) for i, v in enumerate(X)}
    assert (out * denominator).filter_window(inner) == numer.filter_window(inner)
    # a raw part, with a negative numerator exponent and a factor its poles
    # share, expands as its canonical form
    raw = (r.numer * pole_poly(DIFF12, 1, Z)).shift("z1", -1)
    poles = {DIFF12: r.poles.get(DIFF12, 0) + 1}
    canon = RatFun(raw, poles)
    assert expand_iterate(raw, poles, window) == expand_iterate(canon.numer, canon.poles, window)


@st.composite
def parts(draw):
    """A (poles, numerator) part as the table builder makes them: not canonical.

    The numerator may carry negative exponents and share a factor with the
    poles.
    """
    r = draw(ratfuns())
    numer = r.numer.shift("z1", draw(st.integers(-1, 1)))
    poles = dict(r.poles)
    f = draw(st.sampled_from([DIFF12, pole_diff("z1", "z3")[0]]))
    if draw(st.booleans()):
        numer = numer * pole_poly(f, 1, r.numer.vars)
        poles[f] = poles.get(f, 0) + 1
    return poles, numer


@settings(max_examples=60, deadline=None)
@given(st.lists(parts(), max_size=4))
def test_property_sum_agrees_with_expansion(ps):
    window = uniform_window(VARS3, -5, 5)
    total = ratfun_sum(ps)
    # expansion is linear, so the parts' own expansions add up to the sum's
    expected = LaurentPoly.zero(VARS3)
    for poles, numer in ps:
        expected = expected + expand_raw(numer, poles, VARS3, window)
    assert expand_in_region(total, VARS3, window) == expected
    for order in (ps[::-1], ps[1:] + ps[:1]):
        again = ratfun_sum(order)
        assert (again.numer.vars, again.numer.terms, again.poles) == (
            total.numer.vars, total.numer.terms, total.poles,
        )


@st.composite
def part_lists(draw):
    """Two lists of parts: unrelated, or the same sum written differently
    (reordered, each part with one more pole factor on both sides of its
    fraction), possibly with one numerator scaled."""
    lhs = draw(st.lists(parts(), max_size=3))
    if draw(st.booleans()):
        return lhs, draw(st.lists(parts(), max_size=3))
    rhs = []
    for poles, numer in lhs[::-1]:
        f = draw(st.sampled_from([pole_diff("z2", "z3")[0], DIFF12]))
        rhs.append(({**poles, f: poles.get(f, 0) + 1}, numer * pole_poly(f, 1, numer.vars)))
    if rhs and draw(st.booleans()):
        rhs[0] = (rhs[0][0], rhs[0][1] * LaurentPoly.const(draw(st.sampled_from([-1, 2]))))
    return lhs, rhs


@st.composite
def equal_pole_pairs(draw):
    """Two canonical rational functions over equal poles, as one part each:
    one numerator again, over a wider variable universe or scaled, or
    another numerator."""
    r = draw(ratfuns())
    kind = draw(st.sampled_from(["same", "wider", "scaled", "other"]))
    numer = r.numer
    if kind == "wider":
        numer = numer.align(VARS3)
    elif kind == "scaled":
        numer = numer * LaurentPoly.const(draw(st.sampled_from([-1, 2])))
    elif kind == "other":
        numer = draw(ratfuns()).numer
    s = RatFun(numer, r.poles)
    assume(s.poles == r.poles)
    return [(r.poles, r.numer)], [(s.poles, s.numer)]


@settings(max_examples=100, deadline=None)
@given(st.one_of(part_lists(), equal_pole_pairs()))
def test_property_parts_eq_agrees_with_canonical_eq(pair):
    lhs, rhs = pair
    a, b = ratfun_sum(lhs), ratfun_sum(rhs)
    assert parts_eq(lhs, rhs) == ratfun_eq(a, b)
    # canonical data are unique, which pins both tests independently
    assert parts_eq(lhs, rhs) == (a.poles == b.poles and a.numer == b.numer)


@settings(max_examples=100, deadline=None)
@given(parts())
def test_property_a_lone_part_sums_as_over_common(part):
    # ratfun_sum skips the common-denominator pass for one part, numerators
    # a pole factor divides included
    lone, common = ratfun_sum([part]), RatFun(*_over_common([part]))
    assert (lone.numer.vars, lone.numer.terms, lone.poles) == (
        common.numer.vars, common.numer.terms, common.poles,
    )


# -- the common-denominator pass and exact division -----------------------------

VARS4 = ("z1", "z2", "z3", "z4")


def over_common_reference(parts, minus, charge):
    """_over_common as products of polynomials: each part's numerator, moved
    into the universe, times pole_poly of every factor its poles lack, with
    the same charge made before each product."""
    signed = [(part, 1) for part in parts] + [(part, -1) for part in minus]
    common, names = {}, []
    for (poles, numer), _ in signed:
        names += numer.vars
        for f, k in poles.items():
            common[f] = max(k, common.get(f, 0))
    universe = sort_vars(names + [v for f in common for v in f])
    total = LaurentPoly.zero(universe)
    for (poles, numer), sign in signed:
        numer = numer.align(universe)
        for f, k in common.items():
            if (k := k - poles.get(f, 0)) > 0:
                charge(len(numer.terms) * (k + 1), NUMERATOR_TERMS)
                numer = numer * pole_poly(f, k, universe)
        total = total + numer * LaurentPoly.const(sign)
    return total, common


def laurent_polys(draw, names):
    """A nonzero Laurent polynomial over names: exponents down to -2,
    fractional coefficients."""
    terms = {
        tuple(draw(st.integers(-2, 2)) for _ in names): draw(nonzero_rationals)
        for _ in range(draw(st.integers(1, 3)))
    }
    return LaurentPoly(names, terms)


@st.composite
def signed_part_lists(draw):
    """Parts and parts to subtract, over 2-4 variables: each numerator over
    a subset of them, and up to 3 pole factors of exponent 1-4 per part."""
    names = VARS4[:draw(st.integers(2, 4))]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]

    def part():
        own = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True))
        factors = draw(st.lists(st.sampled_from(pairs), max_size=3, unique=True))
        return {f: draw(st.integers(1, 4)) for f in factors}, laurent_polys(draw, sort_vars(own))

    total = draw(st.integers(1, 4))
    parts = [part() for _ in range(total)]
    cut = draw(st.integers(0, total))
    return parts[:cut], parts[cut:]


@settings(max_examples=60, deadline=None)
@given(signed_part_lists())
def test_property_over_common_matches_products_of_pole_polys(lists):
    parts, minus_parts = lists
    charged, expected_charges = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mosva.ratfun, "charge", lambda units, stage: charged.append((units, stage)))
        numer, common = _over_common(parts, minus_parts)
    expected, expected_common = over_common_reference(
        parts, minus_parts, lambda units, stage: expected_charges.append((units, stage))
    )
    assert (numer.vars, numer.terms) == (expected.vars, expected.terms)
    assert common == expected_common
    assert charged == expected_charges


def at_equal(p, a, b):
    """p with a replaced by b, over p's other variables."""
    rest = tuple(v for v in p.vars if v != a)
    out = LaurentPoly.zero(rest)
    for e, c in p.terms.items():
        exps = dict(zip(p.vars, e))
        exps[b] += exps.pop(a)
        out = out + LaurentPoly(rest, {tuple(exps[v] for v in rest): c})
    return out


@st.composite
def division_cases(draw):
    """A Laurent polynomial over 2-3 variables, times (a - b)^m for m = 0-2,
    and the canonical factor (a, b)."""
    names = VARS3[:draw(st.integers(2, 3))]
    f = draw(st.sampled_from([(a, b) for i, a in enumerate(names) for b in names[i + 1:]]))
    p = laurent_polys(draw, names)
    return p * pole_poly(f, draw(st.integers(0, 2)), names), f


@settings(max_examples=150, deadline=None)
@given(division_cases())
def test_property_div_linear_is_exact_division(case):
    p, (a, b) = case
    assume(not p.is_zero())
    quot = p._div_linear(a, b)
    assert (quot is None) == (not at_equal(p, a, b).is_zero())
    if quot is not None:
        assert quot * pole_poly((a, b), 1, p.vars) == p
    # a multiple of (a - b) always divides, and multiplies back
    times = p * pole_poly((a, b), 1, p.vars)
    again = times._div_linear(a, b)
    assert again is not None and again * pole_poly((a, b), 1, p.vars) == times
