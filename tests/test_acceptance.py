"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single pass line with its runtime (visible with -s) and
enforces the criterion's runtime bound.  Everything is rational arithmetic;
there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

import pytest

from mosva.halgebra import (
    CENTRAL,
    HSpace,
    basis_words,
    basis_words_up_to,
    derivative_elem,
    graded_dimension,
    mode,
    pbw_normal_form,
    word_elem,
    word_weight,
)
from mosva.laurent import LaurentPoly
from mosva.checks import (
    SuiteConfig,
    noncommutativity_witness,
    run_suite,
    verify_D_properties,
    verify_d_bracket,
    verify_mode_commutators,
    verify_quotient_homomorphism,
    verify_sym_crosscheck,
)
from mosva.fields import product_series_bruteforce, product_series_states, vertex_series
from mosva.modules import (
    ModulePresentation,
    dual_term,
    free_to_state,
    key_weight,
    state,
    state_to_free,
    vacuum_state,
    validate_module,
    welem_scale,
)
from mosva.ratfun import (
    RatFun,
    expand_in_region,
    expand_iterate,
    expand_raw,
    pole_diff,
    ratfun_eq,
    ratfun_sum,
    uniform_window,
)
from mosva.wick import matrix_coeff_product, product_table_raw

H1 = HSpace.identity(1)
H2 = HSpace.identity(2)
TRIV1 = ModulePresentation.trivial(1)
TRIV2 = ModulePresentation.trivial(2)


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(name: str, timer: Timer, bound: float, detail: str = ""):
    extra = f" - {detail}" if detail else ""
    print(f"PASS {name} ({timer.elapsed:.2f}s < {bound:.0f}s){extra}")
    assert timer.elapsed < bound, f"{name} exceeded its runtime bound"


def test_criterion_1_two_point_function():
    with Timer() as t:
        u = word_elem(((0, 1),))
        rf = matrix_coeff_product(H1, TRIV1, [u, u], dual_term(), vacuum_state())
        expected = RatFun(LaurentPoly.const(1), {pole_diff("z1", "z2")[0]: 2})
        assert rf == expected
        window = uniform_window(("z1", "z2"), -6, 4)
        series = product_series_bruteforce(
            H1, TRIV1, [u, u], vacuum_state(), dual_term(), window
        )
        assert expand_in_region(rf, ("z1", "z2"), window) == series.align(("z1", "z2"))
    report("criterion-1 two-point function", t, 1.0, rf.render())


def test_criterion_2_associativity_all_pairs():
    # every product-table entry, expanded in |x2| > |x0| > 0, is the oracle
    # iterate <f, Y(Y(u1, x0)u2, x2)1> on its dual word.  The inner series is
    # taken once per pair, over the x0 whose coefficients have weight 0 to 6;
    # the x2 window holds every exponent and the oracle pins x2 by weight.
    with Timer() as t:
        words = basis_words_up_to(2, 3)
        region = ("x0", "x2")
        comparisons = 0
        for w1 in words:
            for w2 in words:
                u1, u2 = word_elem(w1), word_elem(w2)
                wt = word_weight(w1) + word_weight(w2)
                window = {"x0": (-wt, 6 - wt), "x2": (-6, 6)}
                iterate = {}
                inner = vertex_series(H2, TRIV2, u1, free_to_state(u2), *window["x0"])
                for e0, velem in inner.items():
                    outer = product_series_states(
                        H2, TRIV2, [state_to_free(velem)], vacuum_state(), (0, 6), {"z1": window["x2"]}
                    )
                    for (e2,), elem in outer.items():
                        for key, c in elem.items():
                            iterate.setdefault(key, {})[(e0, e2)] = c
                table = product_table_raw(H2, TRIV2, [u1, u2], vacuum_state(), 6)
                for key in set(table) | set(iterate):
                    assert key_weight(TRIV2, key) <= 6
                    comparisons += 1
                    total = LaurentPoly.zero(region)
                    for poles, numer in table.get(key, ()):
                        total = total + expand_iterate(numer, poles, window)
                    assert dict(total.align(region).terms) == iterate.get(key, {}), (w1, w2, key)
        assert comparisons >= 10_000
    report(
        "criterion-2 associativity sweep", t, 60.0,
        f"{len(words) ** 2} pairs, {comparisons} exact comparisons",
    )


def test_criterion_3_wick_vs_oracle():
    with Timer() as t:
        region = ("z1", "z2")
        pairs = 0
        for d in (1, 2):
            h = HSpace.identity(d)
            mod = ModulePresentation.trivial(d)
            words = basis_words_up_to(d, 4)
            for w2 in words:
                u2 = word_elem(w2)
                inner_full = vertex_series(
                    h, mod, u2, vacuum_state(), -word_weight(w2), 0
                )
                for w1 in words:
                    u1 = word_elem(w1)
                    cap = word_weight(w1) + word_weight(w2)
                    window = uniform_window(region, -cap, 0)
                    closed = product_table_raw(h, mod, [u1, u2], vacuum_state(), cap)
                    brute = {}
                    for e2, elem in inner_full.items():
                        outer = vertex_series(h, mod, u1, elem, -cap - e2, -e2)
                        for e1, el2 in outer.items():
                            for key, c in el2.items():
                                if key_weight(mod, key) <= cap:
                                    brute.setdefault(key, {})[(e1, e2)] = c
                    for key in set(closed) | set(brute):
                        total = LaurentPoly.zero(region)
                        for poles, numer in closed.get(key, ()):
                            total = total + expand_raw(numer, poles, region, window)
                        assert dict(total.align(region).terms) == brute.get(key, {}), (
                            d, w1, w2, key,
                        )
                    pairs += 1
    report("criterion-3 closed form vs series oracle", t, 60.0, f"{pairs} pairs")


def test_criterion_4_pbw_confluence():
    with Timer() as t:
        rng = random.Random(2024)
        form = HSpace.from_rows([[1, Fraction(1, 2)], [Fraction(1, 3), 2]])
        for trial in range(1000):
            gens = []
            for _ in range(rng.randint(0, 6)):
                if rng.random() < 0.1:
                    gens.append(CENTRAL)
                else:
                    gens.append(mode(rng.randrange(2), rng.randint(-3, 3)))
            left = pbw_normal_form(gens, form, "leftmost")
            right = pbw_normal_form(gens, form, "rightmost")
            assert left == right, (trial, gens)
    report("criterion-4 rewriting confluence", t, 10.0, "1000 words, 2 strategies")


def module_with_noncommuting_action():
    """Minimal module meeting all invariants with noncommuting zero modes,
    a nonzero weight-one operator, and a two-weight grading (needs dim 4:
    with only two one-dimensional weight spaces the zero modes are forced
    diagonal, hence commuting)."""
    a1 = [[0, 1], [0, 0]]
    a2 = [[0, 0], [1, 0]]

    def blockdiag(m):
        return [
            [m[0][0], m[0][1], 0, 0],
            [m[1][0], m[1][1], 0, 0],
            [0, 0, m[0][0], m[0][1]],
            [0, 0, m[1][0], m[1][1]],
        ]

    dm = [
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]
    return ModulePresentation.build([0, 0, 1, 1], [blockdiag(a1), blockdiag(a2)], dm)


def test_criterion_5_module_axioms():
    """The attainable content of the criterion, all exact.

    The d-bracket, derivative/translation identity, associativity, and
    rationality hold on the dim-4 module with noncommuting zero modes and a
    nonzero weight-one operator; the translation-commutator form is checked
    in full on a module with trivial zero-mode action (where it is a
    theorem), since it provably cannot hold alongside nonzero zero modes
    (see the companion xfail test and its witness below).
    """
    with Timer() as t:
        mod = module_with_noncommuting_action()
        assert validate_module(mod) == []
        rho1, rho2 = mod.action
        prod12 = [
            [sum(rho1[s][u] * rho2[u][tt] for u in range(4)) for tt in range(4)]
            for s in range(4)
        ]
        prod21 = [
            [sum(rho2[s][u] * rho1[u][tt] for u in range(4)) for tt in range(4)]
            for s in range(4)
        ]
        assert prod12 != prod21
        assert any(any(row) for row in mod.dm)
        assert len(set(mod.weights)) == 2
        config = SuiteConfig(
            h=H2, module=mod, max_weight=2, dual_weight_cap=4,
            window=(-5, 2), sample_pairs=10, pbw_words=100,
            checks=(
                "identity-creation", "grading-bracket",
                "rationality-product", "rationality-iterate", "associativity",
                "lower-bound",
            ),
        )
        reports = run_suite(config)
        failing = [r.name for r in reports if not r.passed]
        assert not failing, failing
        # derivative vs translation, the form that holds with nonzero zero modes
        for uword in basis_words_up_to(2, 2):
            u = word_elem(uword)
            for s in range(4):
                on_w = vertex_series(H2, mod, u, vacuum_state(s), -5, 3)
                translated = vertex_series(H2, mod, derivative_elem(u), vacuum_state(s), -5, 2)
                for e in range(-5, 3):
                    derivative = welem_scale(on_w.get(e + 1, {}), e + 1)
                    assert derivative == translated.get(e, {}), (uword, s, e)
        # the full three-form identity, on a two-weight module with nonzero
        # weight-one operator and trivial zero-mode action
        chain = ModulePresentation.build(
            [0, 1],
            [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
            [[0, 0], [1, 0]],
        )
        assert validate_module(chain) == []
        for uword in basis_words_up_to(2, 2):
            for s in range(2):
                r = verify_D_properties(H2, chain, word_elem(uword), vacuum_state(s), (-5, 2))
                assert r is None, r
        for s in range(2):
            assert verify_mode_commutators(H2, vacuum_state(s)) is None
    report("criterion-5 module axioms", t, 60.0,
           "dim-4 module, noncommuting action, nonzero weight-one operator")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the translation-commutator form cannot hold on a module whose zero "
        "modes act by nonzero matrices: d/dx of the zero-mode term a(0)x^-1 "
        "has no counterpart in [D_W, Y_W(u,x)] for D_W = D(x)1 + 1(x)D_M, and "
        "a Jacobi argument rules out any corrected weight-one operator when "
        "the matrices do not commute"
    ),
)
def test_criterion_5_literal_translation_commutator():
    mod = module_with_noncommuting_action()
    for uword in basis_words_up_to(2, 2):
        for s in range(4):
            r = verify_D_properties(H2, mod, word_elem(uword), vacuum_state(s), (-5, 2))
            assert r is None, r


def test_criterion_5_commutator_defect_witness():
    """Pins the counterexample behind the xfail above, exactly."""
    from mosva.modules import apply_D, welem_add

    def vertex_coefficient(h, mod, u, s, w):
        return vertex_series(h, mod, u, w, -s - 1, -s - 1).get(-s - 1, {})

    h = H1
    mod = ModulePresentation.build([0], [[[3]]], [[0]])  # a(0) acts by 3
    assert validate_module(mod) == []
    u = word_elem(((0, 1),))
    w = vacuum_state()
    e = -2
    derivative = welem_scale(vertex_coefficient(h, mod, u, -e - 2, w), e + 1)
    translated = vertex_coefficient(h, mod, derivative_elem(u), -e - 1, w)
    uw = vertex_coefficient(h, mod, u, -e - 1, w)
    commutator = welem_add(
        apply_D(mod, uw),
        welem_scale(vertex_coefficient(h, mod, u, -e - 1, apply_D(mod, w)), -1),
    )
    assert derivative == translated == {((), 0): Fraction(-3)}
    assert commutator == {}


def test_criterion_6_quotient_homomorphism():
    with Timer() as t:
        for uword in basis_words_up_to(1, 4):
            for vword in basis_words_up_to(1, 3):
                r = verify_quotient_homomorphism(H1, uword, vword, (-5, 3))
                assert r is None, r
        cross = verify_sym_crosscheck(H1, 4, (-5, 3))
        assert cross is None, cross
    report("criterion-6 quotient homomorphism", t, 30.0,
           "all reorderings up to weight 4, symmetric-side crosscheck")


def test_criterion_7_noncommutativity_witness():
    with Timer() as t:
        witness = noncommutativity_witness(H2, TRIV2, max_weight=2)
        assert witness is not None
        assert witness.u1 == word_elem(((0, 1),))
        assert witness.u2 == word_elem(((1, 1),))
        assert witness.f == dual_term(((0, 1), (1, 1)))
        assert witness.direct == RatFun.const(1)
        assert witness.swapped.is_zero()
        assert not ratfun_eq(witness.direct, witness.swapped)
    report("criterion-7 noncommutativity witness", t, 10.0, witness.describe())


def test_criterion_8_graded_dimensions():
    with Timer() as t:
        for d in (1, 2, 3):
            h = HSpace.identity(d)
            for n in range(9):
                assert graded_dimension(h, n) == len(basis_words(d, n))
        assert [graded_dimension(H1, n) for n in range(9)] == [
            1, 1, 2, 4, 8, 16, 32, 64, 128,
        ]
    report("criterion-8 graded dimensions", t, 1.0, "d <= 3, weight <= 8")


def test_criterion_9_translation_and_grading_identities():
    with Timer() as t:
        states = [vacuum_state(), state(((0, 1),))]
        for w in states:
            assert verify_mode_commutators(H2, w) is None
        for uword in basis_words_up_to(2, 4):
            u = word_elem(uword)
            for w in states:
                r = verify_d_bracket(H2, TRIV2, u, w, (-8, 4))
                assert r is None, (uword, r)
                r = verify_D_properties(H2, TRIV2, u, w, (-8, 4))
                assert r is None, (uword, r)
    report("criterion-9 grading and translation identities", t, 30.0,
           "81 words, window [-8, 4], two states")
