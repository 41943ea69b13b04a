"""The verification suite: per-check behavior and fault injection."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import mosva.checks
import mosva.ratfun
import mosva.wick
from mosva.cli import parse_config, parse_elem, parse_state
from mosva.halgebra import HSpace, basis_words_up_to, render_free_elem, vacuum_elem, word_elem
from mosva.checks import (
    CHECKS,
    ConfigError,
    SuiteConfig,
    noncommutativity_witness,
    project_to_sym,
    run_suite,
    verify_D_properties,
    verify_d_bracket,
    verify_graded_dimensions,
    verify_identity_creation,
    verify_mode_commutators,
    verify_pbw_confluence,
    verify_quotient_homomorphism,
    verify_rationality_iterate,
    verify_rationality_product,
    verify_sym_crosscheck,
)
from mosva.fields import vertex_series
from mosva.laurent import LaurentPoly
from mosva.modules import (
    ModulePresentation,
    dual_term,
    free_to_state,
    render_pairs,
    state,
    vacuum_state,
)
from mosva.ratfun import ratfun_eq, ratfun_sum
from mosva.wick import matrix_coeff_iterate, matrix_coeff_product

H1 = HSpace.identity(1)
H2 = HSpace.identity(2)
TRIV1 = ModulePresentation.trivial(1)
TRIV2 = ModulePresentation.trivial(2)


FAULT = (((0, 1),), 0)  # the basis pair a1(-1)1 on module state 0


@pytest.fixture
def corrupt_series(monkeypatch):
    """corrupt(exponent, only=None): from then on the checks read Y(u, x)w with
    1 added to its a1(-1)1 coefficient at x^exponent, for every u or only
    for u == only."""

    def corrupt(exponent, only=None):
        def series(h, mod, u, w, lo, hi):
            out = vertex_series(h, mod, u, w, lo, hi)
            if lo <= exponent <= hi and (only is None or u == only):
                coeff = dict(out.get(exponent, {}))
                coeff[FAULT] = coeff.get(FAULT, Fraction(0)) + 1
                out = {**out, exponent: coeff}
            return out

        monkeypatch.setattr("mosva.checks.vertex_series", series)

    return corrupt


def test_identity_creation_passes():
    samples = [word_elem(w) for w in basis_words_up_to(2, 3)]
    assert verify_identity_creation(H2, TRIV2, samples, (-6, 4)) is None


def test_identity_creation_fault_injection(corrupt_series):
    samples = [word_elem(((0, 1), (1, 3)))]
    corrupt_series(-3)  # a wrong coefficient deep in the series
    detail = verify_identity_creation(H2, TRIV2, samples, (-6, 4))
    assert "exponent" in detail  # the offending coefficient is located


def test_creation_checks_the_x_inverse_coefficient(corrupt_series):
    u = word_elem(((0, 1), (1, 3)))
    corrupt_series(-1, only=u)
    detail = verify_identity_creation(H2, TRIV2, [u], (-6, 4))
    assert detail == "creation fails at exponent -1 for a1(-1)a2(-3)1"


def test_d_bracket_passes():
    r = verify_d_bracket(
        H2, TRIV2, word_elem(((0, 2),)), vacuum_state(), (-5, 3)
    )
    assert r is None
    r2 = verify_d_bracket(
        H2, TRIV2, word_elem(((0, 1), (0, 1))), state(((1, 1),)), (-5, 3)
    )
    assert r2 is None


def test_d_bracket_fault_injection(corrupt_series):
    corrupt_series(-3)
    r = verify_d_bracket(H2, TRIV2, word_elem(((0, 1),)), vacuum_state(), (-5, 3))
    assert "exponent" in r


def test_D_properties_pass():
    for uword in [((0, 1),), (), ((0, 1), (1, 2))]:
        r = verify_D_properties(H2, TRIV2, word_elem(uword), vacuum_state(), (-5, 3))
        assert r is None, r
    for w in [vacuum_state(), state(((0, 1),)), state(((1, 2), (0, 1)))]:
        assert verify_mode_commutators(H2, w) is None


def test_mode_commutators_run_once_per_state(monkeypatch):
    # they read no u, so the suite asks them once for each of its 3 states,
    # right after that state's first series sample, whose u a failure names
    seen, fail_on = [], []

    def mode_commutators(h, w):
        seen.append(w)
        return "mode commutator fails at a1(1)" if len(seen) in fail_on else None

    monkeypatch.setattr(mosva.checks, "verify_mode_commutators", mode_commutators)
    config = SuiteConfig(h=H2, module=TRIV2, checks=("translation-properties",))
    assert run_suite(config)[-1].passed
    assert len(seen) == 3 and len({render_pairs(w) for w in seen}) == 3
    second = render_pairs(seen[1])
    seen.clear()
    fail_on.append(2)
    report = run_suite(config)[-1]
    assert not report.passed and report.params == {"samples": 27, "window": (-6, 2)}
    assert report.detail == f"u=1 w={second}: mode commutator fails at a1(1)"


def test_D_properties_fault_injection(corrupt_series):
    corrupt_series(-3)
    r = verify_D_properties(H2, TRIV2, word_elem(((0, 1),)), vacuum_state(), (-5, 3))
    assert r == "derivative vs translation at exponent -4"


@pytest.mark.parametrize(
    "name, failure",
    [("grading-bracket", "mismatch at exponent -3"),
     ("translation-properties", "derivative vs translation at exponent -4")],
)
def test_series_check_failures_lead_with_their_sample(corrupt_series, name, failure):
    # only a2(-1)1 reads the fault, so the suite's report names it and the
    # vacuum it first acted on, in the syntax of -u and --state
    corrupt_series(-3, only=word_elem(((1, 1),)))
    report = run_suite(SuiteConfig(h=H2, module=TRIV2, checks=(name,)))[-1]
    assert (report.name, report.passed) == (name, False)
    assert report.detail == f"u=a2(-1)1 w=1: {failure}"
    assert report.params == {"samples": 27, "window": (-6, 2)}


def assert_associative(h, mod, u1, u2, f, w, window):
    """The closed form expands to the product series and to the iterate series."""
    r = verify_rationality_product(h, mod, [u1, u2], f, w, window)
    assert r is None, r
    r = verify_rationality_iterate(h, mod, u1, u2, f, w, window)
    assert r is None, r


def test_associativity_vacuum_pair():
    u = word_elem(((0, 1),))
    assert_associative(H1, TRIV1, u, u, dual_term(), vacuum_state(), (-6, 2))


def test_associativity_deep_pipeline():
    u1 = word_elem(((0, 1), (1, 1)))
    u2 = word_elem(((1, 2),))
    f = dual_term(((0, 1), (1, 1), (1, 2)))
    assert_associative(H2, TRIV2, u1, u2, f, vacuum_state(), (-8, 2))


def test_associativity_nontrivial_module_with_zero_modes():
    mod = ModulePresentation.build(
        [0, 0],
        [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
        [[0, 0], [0, 0]],
    )
    u1 = word_elem(((0, 1),))
    u2 = word_elem(((1, 1),))
    f = dual_term(((1, 1),), 1)
    assert_associative(H2, mod, u1, u2, f, vacuum_state(0), (-6, 2))


ASSOC_ONLY = SuiteConfig(h=H2, module=TRIV2, checks=("associativity",), sample_pairs=4)


@pytest.mark.parametrize("fault", ["scaled", "dropped"])
def test_associativity_fault_injection(monkeypatch, fault):
    # one key of the first iterate table with a nonzero coefficient is
    # scaled by 2 or dropped; every other table is left as it is
    real = mosva.checks.iterate_table_raw
    corrupted = []

    def iterate_table_raw(h, mod, u1, u2, w, cap):
        table = real(h, mod, u1, u2, w, cap)
        key = next((k for k, p in table.items() if not ratfun_sum(p).is_zero()), None)
        if corrupted or key is None:
            return table
        corrupted.append((u1, u2, w, key))
        table = dict(table)
        if fault == "scaled":
            table[key] = [(poles, numer * LaurentPoly.const(2)) for poles, numer in table[key]]
        else:
            del table[key]
        return table

    monkeypatch.setattr("mosva.checks.iterate_table_raw", iterate_table_raw)
    report = run_suite(ASSOC_ONLY)[-1]
    assert report.name == "associativity" and not report.passed
    # the failure leads with its sample, in the syntax of -u and --state
    u1, u2, w, key = corrupted[0]
    sample = f"u1={render_free_elem(u1)} u2={render_free_elem(u2)} w={render_pairs(w)}"
    assert report.detail == f"{sample}: differs against dual {render_pairs({key: 1})}"
    assert report.params["pairs"] == 4 and report.params["coefficients"] > 0


def test_associativity_builds_no_canonical_form(monkeypatch):
    # the check decides equality on raw table parts: no RatFun is reduced
    calls = []
    real = mosva.ratfun._reduce

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mosva.ratfun, "_reduce", counted)
    report = run_suite(ASSOC_ONLY)[-1]
    assert report.name == "associativity" and report.passed
    assert report.params["coefficients"] > 0
    assert calls == []


def test_rationality_product_and_iterate():
    u1 = word_elem(((0, 2),))
    u2 = word_elem(((0, 1),))
    f = dual_term(((0, 1), (0, 2)))
    assert verify_rationality_product(
        H1, TRIV1, [u1, u2], f, vacuum_state(), (-7, 2)
    ) is None
    assert verify_rationality_iterate(
        H1, TRIV1, u1, u2, f, vacuum_state(), (-7, 2)
    ) is None


@pytest.fixture
def swap_operands(monkeypatch):
    """swap(): from then on the checks' closed forms take their two operands
    in the other order."""

    def swap():
        monkeypatch.setattr(
            mosva.checks, "matrix_coeff_product",
            lambda h, mod, us, f, w: matrix_coeff_product(h, mod, us[::-1], f, w),
        )
        monkeypatch.setattr(
            mosva.checks, "matrix_coeff_iterate",
            lambda h, mod, u1, u2, f, w: matrix_coeff_iterate(h, mod, u2, u1, f, w),
        )

    return swap


def test_rationality_checks_fail_on_swapped_operands(swap_operands):
    # a1(-1) and a2(-1) in the other order pair with the dual of a2(-1)a1(-1)1,
    # so a closed form with its operands swapped differs from the series
    u1, u2 = word_elem(((0, 1),)), word_elem(((1, 1),))
    f, w, window = dual_term(((0, 1), (1, 1))), vacuum_state(), (-6, 2)
    assert verify_rationality_product(H2, TRIV2, [u1, u2], f, w, window) is None
    assert verify_rationality_iterate(H2, TRIV2, u1, u2, f, w, window) is None
    swap_operands()
    assert verify_rationality_product(H2, TRIV2, [u1, u2], f, w, window) is not None
    assert verify_rationality_iterate(H2, TRIV2, u1, u2, f, w, window) is not None


def parse_sample(detail, dim):
    """A rationality failure's u1, u2, w and dual, read back as the CLI reads
    -u, --state and --dual, and the failure that follows them."""
    sample, _, failure = detail.partition(": ")
    fields = dict(item.split("=", 1) for item in sample.split(" "))
    assert list(fields) == ["u1", "u2", "w", "dual"]
    u1, u2 = (parse_elem(fields[k], dim) for k in ("u1", "u2"))
    w, f = (parse_state(fields[k], dim, 1) for k in ("w", "dual"))
    return (u1, u2, w, f), failure


def replay(name, h, mod, sample, window=(-6, 2)):
    """The rationality check `name` on one parsed sample alone."""
    u1, u2, w, f = sample
    if name == "rationality-product":
        return verify_rationality_product(h, mod, [u1, u2], f, w, window)
    return verify_rationality_iterate(h, mod, u1, u2, f, w, window)


@pytest.mark.parametrize("name", ["rationality-product", "rationality-iterate"])
def test_rationality_failures_name_a_sample_that_parses_back(monkeypatch, swap_operands, name):
    # with the closed form's operands swapped, a FAIL names its whole sample:
    # u1, u2, w and the dual parse back to what was drawn, and the sample
    # fails alone with the same rational function
    drawn = []
    reached = mosva.checks._reached_sample

    def recording(s, rng, u1, u2):
        f, w = reached(s, rng, u1, u2)
        drawn.append((u1, u2, w, f))
        return f, w

    monkeypatch.setattr(mosva.checks, "_reached_sample", recording)
    swap_operands()
    report = run_suite(SuiteConfig(h=H2, module=TRIV2, seed=0, checks=(name,)))[-1]
    assert (report.name, report.passed) == (name, False)
    sample, failure = parse_sample(report.detail, 2)
    assert sample == drawn[-1]
    assert replay(name, H2, TRIV2, sample) == failure
    assert report.params == {"pairs": 8 if name == "rationality-product" else 6, "window": (-6, 2)}


def test_rationality_samples_compare_coefficients_that_exist(monkeypatch):
    # each sample's dual is a basis pair the product reaches, so the oracle
    # series it is compared with is almost never all zero
    counts = {}

    def counting(name):
        oracle = getattr(mosva.checks, name)

        def wrapped(*args):
            series = oracle(*args)
            counts.setdefault(name, []).append(not series.is_zero())
            return series

        return wrapped

    for name in ("product_series_bruteforce", "iterate_series_bruteforce"):
        monkeypatch.setattr(mosva.checks, name, counting(name))
    for seed in range(5):
        config = SuiteConfig(
            h=H2, module=TRIV2, seed=seed, checks=("rationality-product", "rationality-iterate")
        )
        assert all(r.passed for r in run_suite(config))
    product, iterate = counts["product_series_bruteforce"], counts["iterate_series_bruteforce"]
    assert (len(product), len(iterate)) == (40, 30)
    assert sum(product) >= 0.85 * len(product) and sum(iterate) >= 0.9 * len(iterate)


def test_rationality_checks_fail_when_the_engine_drops_a_pattern(monkeypatch, fresh_elem_terms):
    # the duals come from the oracle's reach, not the engine's table, so a
    # basis pair the engine loses (here the vacuum of a full contraction)
    # is still sampled; the memo is emptied around the test, so the patched
    # pattern set is contracted and never outlives it
    checks = ("rationality-product", "rationality-iterate")
    configs = [SuiteConfig(h=H1, module=TRIV1, seed=seed, checks=checks) for seed in range(3)]
    assert all(r.passed for config in configs for r in run_suite(config))
    full = mosva.wick._pattern_pairs
    monkeypatch.setattr(
        mosva.wick, "_pattern_pairs",
        lambda k, l: (pairs for pairs in full(k, l) if not (pairs and len(pairs) == k == l)),
    )
    fresh_elem_terms.cache_clear()  # drop the terms the unpatched runs contracted
    for config in configs:
        failed = [r for r in run_suite(config) if not r.passed]
        assert failed, config.seed
        for report in failed:
            # the sample a failure names fails alone, with the same detail
            sample, failure = parse_sample(report.detail, 1)
            assert replay(report.name, H1, TRIV1, sample) == failure, report.detail


def test_rationality_checks_report_the_pairs_they_checked():
    # the default suite draws 25 pairs and expands 8 and 6 of them
    config = SuiteConfig(h=H2, module=TRIV2, checks=("rationality-product", "rationality-iterate"))
    reports = {r.name: r.params for r in run_suite(config)}
    assert reports["rationality-product"] == {"pairs": 8, "window": (-6, 2)}
    assert reports["rationality-iterate"] == {"pairs": 6, "window": (-6, 2)}


# -- symmetric projection ----------------------------------------------------------


def test_project_to_sym_merges_reorderings():
    u = word_elem(((0, 1), (1, 2)))
    v = word_elem(((1, 2), (0, 1)))
    assert project_to_sym(u) == project_to_sym(v)


def test_project_to_sym_kernel_element():
    from mosva.halgebra import free_add, free_scale

    diff = free_add(
        word_elem(((0, 1), (1, 2))), free_scale(word_elem(((1, 2), (0, 1))), -1)
    )
    assert project_to_sym(diff) == {}


def test_project_vacuum():
    assert project_to_sym(vacuum_elem()) == {(): Fraction(1)}


def test_quotient_homomorphism_examples():
    assert verify_quotient_homomorphism(H2, ((0, 1), (1, 1)), (), (-4, 3)) is None
    assert verify_quotient_homomorphism(H2, ((0, 1), (1, 1)), ((0, 1),), (-4, 3)) is None


def test_quotient_sweep_reads_every_ordering(corrupt_series):
    # a2(-1)a1(-1)1 is not its class's representative a1(-1)a2(-1)1, so only
    # the representative's sweep over orderings can read the fault
    corrupt_series(-2, only=word_elem(((1, 1), (0, 1))))
    config = SuiteConfig(h=H2, module=TRIV2, checks=("quotient-homomorphism",))
    report = run_suite(config)[-1]
    assert report.name == "quotient-homomorphism" and not report.passed
    assert report.detail == "projection differs for a2(-1)a1(-1)1 / 1"


def test_quotient_sweep_skips_pairs_with_one_ordering(monkeypatch):
    # 77 of dim 2's 144 class pairs have one ordering each: a1(-1)a1(-1)1 / 1
    # has nothing to compare its series with, so none is asked for
    calls = []

    def counted(h, mod, u, w, lo, hi):
        calls.append((u, w))
        return vertex_series(h, mod, u, w, lo, hi)

    monkeypatch.setattr("mosva.checks.vertex_series", counted)
    config = SuiteConfig(h=H2, module=TRIV2, checks=("quotient-homomorphism",))
    assert run_suite(config)[-1].passed
    assert len(calls) == 166
    assert (word_elem(((0, 1), (0, 1))), free_to_state(vacuum_elem())) not in calls


def test_projection_is_genuinely_a_quotient():
    # raw outputs differ for reordered inputs even though projections agree
    from mosva.fields import vertex_series
    from mosva.modules import free_to_state

    triv = TRIV2
    u = word_elem(((0, 1), (1, 1)))
    u2 = word_elem(((1, 1), (0, 1)))
    s1 = vertex_series(H2, triv, u, free_to_state(vacuum_elem()), 0, 2)
    s2 = vertex_series(H2, triv, u2, free_to_state(vacuum_elem()), 0, 2)
    assert s1 != s2


def test_sym_vertex_coefficient_matches_projection():
    r = verify_sym_crosscheck(H1, 3, (-4, 3))
    assert r is None, r


def test_sym_crosscheck_fault_injection(corrupt_series):
    corrupt_series(-3)
    assert verify_sym_crosscheck(H1, 3, (-4, 3)) == "1 on 1 at x^-3"


# -- witnesses ----------------------------------------------------------------------


def test_witness_documented_d2():
    w = noncommutativity_witness(H2, TRIV2)
    assert w is not None
    assert ratfun_eq(w.direct, w.direct)
    assert not ratfun_eq(w.direct, w.swapped)
    values = sorted([w.direct.render(), w.swapped.render()])
    assert values == ["0", "1"]


def test_witness_exists_even_for_d1():
    # tensor words remember mode order: a(-1) against a(-2) under the dual
    # a(-1)a(-2) separates the two product orders
    w = noncommutativity_witness(H1, TRIV1)
    assert w is not None
    assert not ratfun_eq(w.direct, w.swapped)


def test_witness_on_noncommuting_zero_modes_is_the_first_word_pair():
    # the word sweep returns at a1(-1)1, a2(-1)1 whatever the zero modes do;
    # with no words to sweep there is no witness
    mod = ModulePresentation.build(
        [0, 0],
        [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
        [[0, 0], [0, 0]],
    )
    for max_weight in (1, 2):
        w = noncommutativity_witness(H2, mod, max_weight)
        assert (w.u1, w.u2) == (word_elem(((0, 1),)), word_elem(((1, 1),)))
        assert not ratfun_eq(w.direct, w.swapped)
    assert noncommutativity_witness(H2, mod, 0) is None


def test_witness_report_names_a_dual_off_the_first_basis_vector():
    # a dim-1 form on a two-dimensional module whose zero mode swaps the
    # basis vectors: the witness dual sits on the second one
    mod = ModulePresentation.build([0, 0], [[[0, 1], [1, 0]]], [[0, 0], [0, 0]])
    config = SuiteConfig(h=H1, module=mod, checks=("noncommutativity-witness",))
    report = next(r for r in run_suite(config) if r.name == "noncommutativity-witness")
    assert report.passed
    assert "dual=1@2:" in report.detail


# -- structural checks ----------------------------------------------------------------


def test_pbw_confluence_check():
    assert verify_pbw_confluence(H2, 200, seed=5) is None


def test_graded_dimension_check():
    assert verify_graded_dimensions(H2, 6) is None


def test_run_suite_default_passes():
    config = SuiteConfig(h=H2, module=TRIV2, max_weight=3, sample_pairs=8, pbw_words=120)
    reports = run_suite(config)
    assert reports, "suite must produce reports"
    failing = [r.name for r in reports if not r.passed]
    assert not failing, failing


def test_a_suite_of_checks_that_read_only_the_config_draws_no_sample_grid():
    # pbw-confluence and module-invariants read only the config.  On dim 100
    # the grid (every word up to weight 3, with its element) peaked at 362 MB
    # traced when it was drawn up front; drawn only when read, the suite
    # peaks at 7 KB (both measured on Python 3.11)
    config = parse_config('{"dim": 100, "suite": {"checks": ["pbw-confluence"]}}')
    tracemalloc.start()
    try:
        reports = run_suite(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(r.name, r.passed) for r in reports] == [("module-invariants", True), ("pbw-confluence", True)]
    assert peak < 2**20, peak


def test_run_suite_deterministic():
    config = SuiteConfig(h=H2, module=TRIV2, max_weight=2, sample_pairs=4, pbw_words=50)
    a = [r.line() for r in run_suite(config)]
    b = [r.line() for r in run_suite(config)]
    assert a == b


def test_run_suite_symmetric_form_cross_check():
    form = HSpace.from_rows([[2, 1], [1, 2]])
    config = SuiteConfig(h=form, module=TRIV2, max_weight=2, sample_pairs=6, pbw_words=80)
    failing = [r.name for r in run_suite(config) if not r.passed]
    assert not failing, failing


ENTRY = st.sampled_from(["0", "1", "1/2"])


@st.composite
def raw_presentations(draw):
    """(form dim, module args): the module's dim, its weight count, its
    number of action matrices and every matrix's row count and row lengths
    are drawn apart, each the declared size seven times in eight."""
    hdim, dim = draw(st.integers(1, 2)), draw(st.integers(0, 3))

    def size(declared):
        return declared if draw(st.integers(0, 7)) else draw(st.integers(0, 3))

    def matrix():
        return [[draw(ENTRY) for _ in range(size(dim))] for _ in range(size(dim))]

    weights = [draw(ENTRY) for _ in range(size(dim))]
    return hdim, (dim, weights, [matrix() for _ in range(size(hdim))], matrix())


@settings(max_examples=60, deadline=None)
@given(raw_presentations())
def test_property_a_presentation_either_refuses_construction_or_gets_every_report(raw):
    # entries from 0, 1 and 1/2 break the module axioms often; those are for
    # module-invariants to report, and no check may crash on them
    hdim, args = raw
    try:
        config = SuiteConfig(
            h=HSpace.identity(hdim), module=ModulePresentation(*args),
            max_weight=1, window=(-2, 1), sample_pairs=1, pbw_words=5,
        )
    except ValueError:
        return
    assert [r.name for r in run_suite(config)] == list(CHECKS)


@pytest.mark.parametrize(
    "field, value",
    [("max_weight", 6), ("max_weight", 0), ("sample_pairs", 0), ("pbw_words", 0),
     ("seed", 1.5), ("window", (3, 1)), ("checks", ("asociativity",)),
     ("window", (-6, 17)), ("window", (-1001, 2)),
     ("sample_pairs", 1_001), ("pbw_words", 100_001), ("sample_pairs", 10**9)],
)
def test_suite_config_rejects_out_of_domain_values(field, value):
    # library callers get the same bounds as the CLI: max_weight 6 would
    # exhaust memory in the oracle, a count of 0 checks nothing, the pairs
    # are all drawn before any check runs, and the suite's cost grows at
    # both ends of the window
    with pytest.raises(ConfigError) as err:
        SuiteConfig(h=H2, module=TRIV2, **{field: value})
    assert err.value.path == field


def test_suite_config_rejects_a_module_of_another_dimension():
    # a dim-1 module on a dim-2 form has no zero mode for a2: the suite would
    # fail inside lower-bound instead of naming the module
    with pytest.raises(ConfigError) as err:
        SuiteConfig(h=H2, module=ModulePresentation.trivial(1))
    assert err.value.path == "module"


def test_suite_config_normalizes_lists():
    config = SuiteConfig(h=H2, module=TRIV2, window=[-3, 1], checks=["associativity"])
    assert config.window == (-3, 1) and config.checks == ("associativity",)


def test_sampled_checks_draw_from_their_own_streams(monkeypatch):
    """rationality-iterate sees the same samples whether rationality-product
    ran before it, was left out, or stopped at its first sample, so a failure
    seen in the full suite replays with that one check selected."""
    calls = []

    def recording(*args):
        calls.append(args)
        return verify_rationality_iterate(*args)

    def run(checks):
        calls.clear()
        config = SuiteConfig(h=H2, module=TRIV2, seed=0, sample_pairs=8, checks=checks)
        assert all(r.passed for r in run_suite(config) if r.name != "rationality-product")
        return list(calls)

    monkeypatch.setattr("mosva.checks.verify_rationality_iterate", recording)
    both = run(("rationality-product", "rationality-iterate"))
    alone = run(("rationality-iterate",))
    monkeypatch.setattr(
        "mosva.checks.verify_rationality_product",
        lambda *args: "injected",
    )
    stopped = run(("rationality-product", "rationality-iterate"))
    assert both and both == alone == stopped
