"""Config parsing, the element grammar, and command outputs."""

import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import mosva
from mosva.checks import CHECKS, MAX_DIM, WINDOW_BOUNDS
from mosva.cli import (
    MODULE_KEYS,
    SUITE_KEYS,
    TOP_KEYS,
    ConfigError,
    ElemParseError,
    main,
    parse_config,
    parse_elem,
    parse_hat_word,
    parse_state,
)
from mosva.halgebra import CENTRAL, HSpace, mode, pbw_normal_form, render_free_elem, render_pbw_word
from mosva.modules import render_pairs
from mosva.scalars import charge


# -- element grammar ----------------------------------------------------------------


def test_parse_single_word():
    out = parse_elem("a1(-1)a2(-2)1", 2)
    assert out == {((0, 1), (1, 2)): Fraction(1)}


def test_parse_combination_with_coefficients():
    out = parse_elem("1/2*a1(-1)1 + a2(-1)1", 2)
    assert out == {((0, 1),): Fraction(1, 2), ((1, 1),): Fraction(1)}


def test_parse_vacuum_and_negative_terms():
    out = parse_elem("1 - 2*a1(-1)1", 1)
    assert out == {(): Fraction(1), ((0, 1),): Fraction(-2)}


def test_parse_index_out_of_range():
    with pytest.raises(ElemParseError):
        parse_elem("a3(-1)1", 2)


def test_parse_mode_must_be_negative():
    with pytest.raises(ElemParseError):
        parse_elem("a1(1)1", 2)


def test_parse_error_carries_offset():
    try:
        parse_elem("a1(-1)a2", 2)
    except ElemParseError as exc:
        assert exc.offset == 8
    else:
        pytest.fail("expected a parse error")


def test_parse_render_round_trip():
    texts = [
        "a1(-1)a2(-2)1 + a2(-1)1",
        "1/2*a1(-1)1",
        "1",
        "a2(-3)1 - 1/3*a1(-1)a1(-1)1",
    ]
    for text in texts:
        elem = parse_elem(text, 2)
        rendered = render_free_elem(elem)
        assert parse_elem(rendered, 2) == elem
    # canonical strings render back to themselves
    canonical = render_free_elem(parse_elem("a2(-1)1 + 1/2*a1(-1)a2(-2)1", 2))
    assert render_free_elem(parse_elem(canonical, 2)) == canonical


def test_parse_state_reads_basis_indices():
    out = parse_state("1@2 - 1/2*a1(-1)1 + a2(-2)1@3", 2, 3)
    assert out == {((), 1): 1, (((0, 1),), 0): Fraction(-1, 2), (((1, 2),), 2): 1}
    assert parse_state("a1(-1)1@1", 2, 1) == {(((0, 1),), 0): 1}
    with pytest.raises(ElemParseError, match="index @3 out of range for module dim 2"):
        parse_state("a1(-1)1@3", 2, 2)
    with pytest.raises(ElemParseError):  # operands carry no basis index
        parse_elem("a1(-1)1@1", 2)


# basis pairs of modules of dimension 1-4, over words of dim 2
PAIRS = st.dictionaries(
    st.tuples(
        st.lists(st.tuples(st.integers(0, 1), st.integers(1, 3)), max_size=3).map(tuple),
        st.integers(0, 3),
    ),
    st.fractions(max_denominator=5).filter(bool),
    min_size=1,  # the zero element renders as "0", which is no term of the grammar
    max_size=4,
)


@given(st.integers(1, 4), PAIRS)
def test_state_parse_inverts_render(mdim, elem):
    elem = {(word, s % mdim): c for (word, s), c in elem.items()}
    assert parse_state(render_pairs(elem), 2, mdim) == elem


# every sign, integral and fractional coefficients, the vacuum word and the
# zero element (the empty dict, printed "0")
COEFFS = st.fractions(-3, 3, max_denominator=4).filter(bool)
WORDS = st.lists(st.tuples(st.integers(0, 1), st.integers(1, 3)), max_size=3).map(tuple)


@given(st.dictionaries(WORDS, COEFFS, max_size=4))
def test_element_parse_inverts_render(elem):
    assert parse_elem(render_free_elem(elem), 2) == elem


@given(st.integers(1, 4), st.dictionaries(st.tuples(WORDS, st.integers(0, 3)), COEFFS, max_size=4))
def test_state_and_dual_parse_inverts_render(mdim, elem):
    # states and duals print and parse alike, as word@k
    elem = {(word, s % mdim): c for (word, s), c in elem.items()}
    assert parse_state(render_pairs(elem), 2, mdim) == elem


@pytest.mark.parametrize("text, elem", [
    ("-a1(-1)1", {((0, 1),): -1}),
    ("- a1(-1)1", {((0, 1),): -1}),
    ("-1", {(): -1}),
    ("-1/2*1 + a1(-1)1", {(): Fraction(-1, 2), ((0, 1),): 1}),
    ("0", {}),
    (" 0 ", {}),
])
def test_a_leading_minus_is_a_sign_and_0_is_zero(text, elem):
    assert parse_elem(text, 1) == elem


def test_a_value_after_a_space_that_starts_with_minus_is_told_to_attach(capsys):
    assert main(["quotient", "-c", '{"dim": 1}', "-u", "-1*a1(-1)1"]) == 2
    assert capsys.readouterr().err.endswith(
        "argument -u: expected one argument; a value that starts with '-' must be attached with '=' (-u=VALUE)\n"
    )
    # attached, the printed element reads back
    assert main(["quotient", "-c", '{"dim": 1}', "-u=-1*a1(-1)1"]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == "-a1(-1)1"
    assert main(["quotient", "-c", '{"dim": 1}', f"-u={printed}"]) == 0
    assert capsys.readouterr().out.strip() == printed


def test_parse_hat_word_mixed_modes():
    gens = parse_hat_word("a1(1)a1(-1)", 1)
    assert gens == [mode(0, 1), mode(0, -1)]
    gens = parse_hat_word("k a1(0) a2(0)", 2)
    assert gens == [CENTRAL, mode(0, 0), mode(1, 0)]
    assert parse_hat_word("k^3 a1(0) k", 1) == [CENTRAL] * 3 + [mode(0, 0), CENTRAL]


def test_a_power_of_k_past_the_budget_is_refused_before_it_is_built(capsys):
    start = time.perf_counter()
    code = main(["normalform", *DIM1, "k^1000000000000"])
    assert time.perf_counter() - start < 1
    assert code == 2 and capsys.readouterr().err.startswith("error: expr: ")


PBW_WORDS = st.tuples(
    st.lists(st.tuples(st.integers(0, 1), st.integers(-4, -1)), max_size=3).map(tuple),
    st.lists(st.tuples(st.integers(0, 1), st.integers(1, 4)), max_size=3).map(tuple),
    st.lists(st.integers(0, 1), max_size=2).map(tuple),
    st.integers(0, 4),
)


@settings(max_examples=100)
@given(PBW_WORDS)
def test_hat_word_parse_inverts_render(word):
    neg, pos, zero, c = word
    gens = parse_hat_word(render_pbw_word(word), 2)
    assert gens == [mode(i, n) for i, n in neg + pos] + [mode(i, 0) for i in zero] + [CENTRAL] * c
    assert pbw_normal_form(gens, HSpace.from_rows([[1, Fraction(1, 2)], [Fraction(1, 3), 2]])) == {word: 1}


# -- config -------------------------------------------------------------------------


def test_config_minimal():
    config = parse_config('{"dim": 1, "form": [["1"]]}')
    assert config.h.dim == 1
    assert config.module.dim == 1
    assert config.module.weights == (Fraction(0),)


def test_config_with_module():
    config = parse_config(
        json.dumps(
            {
                "dim": 2,
                "form": [["1", "0"], ["0", "1"]],
                "module": {
                    "weights": ["0", "0"],
                    "action": [
                        [["0", "1"], ["0", "0"]],
                        [["0", "0"], ["1", "0"]],
                    ],
                    "Dm": [["0", "0"], ["0", "0"]],
                },
            }
        )
    )
    assert config.module.dim == 2


def test_config_dm_weight_violation_names_entry():
    bad = json.dumps(
        {
            "dim": 1,
            "form": [["1"]],
            "module": {
                "weights": ["0", "1"],
                "action": [[["1", "0"], ["0", "1"]]],
                "Dm": [["0", "1"], ["0", "0"]],
            },
        }
    )
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "Dm" in str(err.value)


def test_config_rational_error_has_path():
    with pytest.raises(ConfigError) as err:
        parse_config('{"dim": 1, "form": [["x"]]}')
    assert "form[0][0]" in str(err.value)


# -- commands -----------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cmd_product_two_point(capsys):
    code, out = run_cli(
        capsys,
        "product", "-c", '{"dim": 1}',
        "-u", "a1(-1)1", "-u", "a1(-1)1",
        "--dual", "1", "--state", "1",
    )
    assert code == 0
    assert out.strip() == "1 / ((z1 - z2)^2)"


def test_cmd_iterate_matches_product(capsys):
    code, out = run_cli(
        capsys,
        "iterate", "-c", '{"dim": 1}',
        "-u", "a1(-1)1", "-u", "a1(-1)1",
        "--dual", "1", "--state", "1",
    )
    assert code == 0
    assert out.strip() == "1 / ((z1 - z2)^2)"


def test_cmd_normalform(capsys):
    code, out = run_cli(capsys, "normalform", "-c", '{"dim": 1}', "a1(1)a1(-1)")
    assert code == 0
    assert out.strip() == "a1(-1)a1(1) + 1*k"
    code, out = run_cli(capsys, "normalform", "-c", '{"dim": 1}', "k^2")
    assert (code, out.strip()) == (0, "1*k^2")


# a1(1)^6 a1(-1)^6 rewrites 417,705 letters in about 0.3 s, and
# a1(1)^n a1(-1) rewrites 2n^2 + 2n + 1: n = 499 is the largest under the
# budget of 500,000 (FLAG_ERRORS has n = 500)
@pytest.mark.parametrize(
    "expr",
    ["a1(1)" * 6 + "a1(-1)" * 6, "a1(1)" * 42 + "a1(-1)", "a1(1)" * 43 + "a1(-1)", "a1(1)" * 499 + "a1(-1)"],
    ids=["36-pairs", "42-pairs", "43-pairs", "budget-edge"],
)
def test_normalform_pair_bound_admits(expr, capsys):
    code, out = run_cli(capsys, "normalform", "-c", '{"dim": 1}', expr)
    assert code == 0
    assert out.startswith("a1(-1)")


def test_normalform_without_contractible_pairs_is_quick(capsys):
    # a1(1) meets no a1(-1): the word sorts at once, not one swap at a time
    expr = "a1(1)" * 400 + "a1(-2)" * 400
    start = time.perf_counter()
    code, out = run_cli(capsys, "normalform", *DIM1, expr)
    assert time.perf_counter() - start < 1
    assert code == 0 and out.strip() == "a1(-2)" * 400 + "a1(1)" * 400


def test_a_reader_that_stops_early_gets_no_traceback():
    # about 300 kB of output, far past a pipe's buffer, so later writes meet
    # the closed pipe
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mosva.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "mosva.cli", "series",
         "-c", '{"dim": 2, "form": [["1","1/2"],["1/3","2"]]}',
         "-u", "a1(-1)a2(-2)a1(-1)1", "--window=0:40"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = proc.stdout.read(300)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=30) == 0
    assert head.startswith(b"x^") and "Traceback" not in err and not err


def test_cmd_quotient(capsys):
    code, out = run_cli(
        capsys, "quotient", "-c", '{"dim": 2}',
        "-u", "a2(-2)a1(-1)1 - a1(-1)a2(-2)1",
    )
    assert code == 0
    assert out.strip() == "0"


def test_cmd_series(capsys):
    code, out = run_cli(
        capsys,
        "series", "-c", '{"dim": 1}',
        "-u", "a1(-2)1", "--state", "1", "--window=-1:1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x^0: a1(-2)1"
    assert lines[1] == "x^1: 2*a1(-3)1"
    assert "vanish below exponent -2" in lines[-1]


# the series bound weighs the word: comb(hi + k, k) fills for k letters, so
# 1 letter reaches far above 64 (4 letters at 0:64 exit 2, see FLAG_ERRORS),
# and a coefficient of at most 512 bits, so order 3000 stops at 0:76
@pytest.mark.parametrize(
    "word, window",
    [("a1(-1)1", "0:1000"), ("a1(-1)a1(-1)a1(-1)1", "0:64"), ("a1(-3000)1", "0:76")],
)
def test_series_bound_admits(word, window, capsys):
    assert main(["series", *DIM1, "-u", word, "--window=" + window]) == 0


def test_product_on_a_state_with_a_huge_mode_is_quick():
    # positive modes come from the state's letters, not from every n up to
    # its weight
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mosva.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "mosva.cli", "product", *DIM1, "-u", "a1(-1)1", "-u", "a1(-1)1",
         "--state", "a1(-99999999)1"],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert (done.returncode, done.stdout.strip()) == (0, "0")


@pytest.mark.parametrize("command", ["product", "iterate"])
def test_operand_weight_bound_refuses_a_huge_mode_quickly(command):
    # the scalars of a huge mode have tens of millions of digits: the bound
    # refuses before any contraction
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mosva.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "mosva.cli", command, *DIM1,
         "-u", "a1(-99999999)1", "-u", "a1(-99999999)1"],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert done.returncode == 2 and done.stderr.startswith("error: -u: ")


@pytest.mark.parametrize("command", ["product", "iterate"])
@pytest.mark.parametrize("u1, u2", [
    ("a1(-6000)1", "a1(-6000)1"),
    ("a1(-6000)1 + a1(-3000)1", "a1(-6000)1"),  # two parts over one denominator
    ("a1(-3000)a1(-3000)1", "a1(-3000)a1(-3000)1"),  # balanced orders
])
def test_operand_weight_bound_admits(command, u1, u2, capsys):
    # at the bound the printed scalars keep a margin under Python's
    # 4,300-digit limit for integer strings
    code, out = run_cli(capsys, command, *DIM1, "-u", u1, "-u", u2)
    assert code == 0 and out.strip().endswith("/ ((z1 - z2)^12000)")
    assert max(map(len, re.findall(r"\d+", out))) < 3700


@pytest.mark.parametrize("command", ["product", "iterate"])
def test_pattern_bound_refuses_many_letters_quickly(command, capsys, fresh_elem_terms):
    # a1(-1)^7 1 twice charges 130,923 patterns, about 2.4 s of contraction;
    # the fold charges a step's patterns before it enumerates them
    word = "a1(-1)" * 7 + "1"
    start = time.perf_counter()
    code = main([command, *DIM1, "-u", word, "-u", word])
    elapsed = time.perf_counter() - start
    assert code == 2 and capsys.readouterr().err.startswith("error: -u: ")
    assert elapsed < 1


@pytest.mark.parametrize("command", ["product", "iterate"])
def test_pattern_bound_admits(command, capsys):
    # a1(-1)^6 1 twice charges 13,328 patterns
    word = "a1(-1)" * 6 + "1"
    code, out = run_cli(capsys, command, *DIM1, "-u", word, "-u", word)
    assert (code, out.strip()) == (0, "720 / ((z1 - z2)^12)")


def test_cmd_check_passes(capsys):
    code, out = run_cli(
        capsys, "check",
        "-c", '{"dim": 2, "suite": {"max_weight": 2, "sample_pairs": 4, "pbw_words": 40}}',
    )
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


# a two-dimensional module on which the zero mode swaps the basis vectors
SWAP_MODULE = {"weights": ["0", "0"], "action": [[["0", "1"], ["1", "0"]]]}


def test_cmd_check_witness_on_a_two_dimensional_module(capsys):
    # the witness dual sits on the module's second basis vector
    config = {"dim": 1, "module": SWAP_MODULE, "suite": {"checks": ["noncommutativity-witness"]}}
    code = main(["check", "-c", json.dumps(config)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert "noncommutativity-witness" in captured.out
    # the printed witness replays through `mosva product` to its direct value
    code, out = run_cli(capsys, "check", "-c", json.dumps(config), "--format", "json")
    detail = json.loads(out)[-1]["detail"]
    u1, u2, dual, direct = re.fullmatch(r"u1=(\S+) u2=(\S+) dual=(\S+): (.*) vs .*", detail).groups()
    assert dual == "1@2"
    del config["suite"]
    code, out = run_cli(capsys, "product", "-c", json.dumps(config), "-u", u1, "-u", u2, "--dual", dual)
    assert (code, out.strip()) == (0, direct)


def test_cmd_check_json_stable(capsys):
    argv = [
        "check",
        "-c", '{"dim": 2, "suite": {"max_weight": 2, "sample_pairs": 3, "pbw_words": 30}}',
        "--format", "json",
    ]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    json.loads(out1)


def test_cmd_product_json_format(capsys):
    code, out = run_cli(
        capsys,
        "product", "-c", '{"dim": 1}',
        "-u", "a1(-1)1", "-u", "a1(-1)1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["poles"] == [{"a": "z1", "b": "z2", "exponent": 2, "kind": "diff"}]


# the nonsymmetric form and dim-4 module of the benchmark's check-cli workload
CHECK_CLI_CONFIG = json.dumps({
    "dim": 2,
    "form": [["1", "1/2"], ["1/3", "2"]],
    "module": {
        "weights": ["0", "0", "1", "1"],
        "action": [
            [["0", "1", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "1"], ["0", "0", "0", "0"]],
            [["0", "0", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "1", "0"]],
        ],
        "Dm": [["0", "0", "0", "0"], ["0", "0", "0", "0"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]],
    },
})


def test_cmd_product_prints_var_and_diff_poles(capsys):
    # zero modes that act leave z1 and z2 in the denominator next to (z1 - z2)
    argv = ["product", "-c", CHECK_CLI_CONFIG, "-u", "a1(-1)1", "-u", "a2(-1)1"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out.strip() == "(z1^2 - 3/2*z1*z2 + z2^2) / (z1^1 * z2^1 * (z1 - z2)^2)"
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "numerator": {
            "variables": ["z1", "z2"],
            "terms": [
                {"exponents": [2, 0], "coeff": "1"},
                {"exponents": [1, 1], "coeff": "-3/2"},
                {"exponents": [0, 2], "coeff": "1"},
            ],
        },
        "poles": [
            {"kind": "var", "var": "z1", "exponent": 1},
            {"kind": "var", "var": "z2", "exponent": 1},
            {"kind": "diff", "a": "z1", "b": "z2", "exponent": 2},
        ],
    }


def test_usage_error_exit_code(capsys):
    code, _ = run_cli(capsys, "series", "-c", '{"dim": 1}', "-u", "a1(-1)1",
                      "-u", "a1(-2)1")
    assert code == 2


def test_parse_error_exit_code(capsys):
    code = main(["product", "-c", '{"dim": 1}', "-u", "a9(-1)1"])
    assert code == 2


def test_bad_config_exit_code():
    code = main(["check", "-c", '{"dim": 0}'])
    assert code == 2


def test_missing_config_file_exit_code():
    code = main(["check", "-c", "/nonexistent/cfg.json"])
    assert code == 2


# each config carries one bad value; the error must name its field
BAD_CONFIGS = {
    "check-typo": ('{"dim": 2, "suite": {"checks": ["asociativity"]}}', "suite.checks"),
    "checks-string": ('{"dim": 2, "suite": {"checks": "associativity"}}', "suite.checks"),
    "checks-nested": ('{"dim": 2, "suite": {"checks": [["associativity"]]}}', "suite.checks"),
    "checks-null": ('{"dim": 2, "suite": {"checks": [null]}}', "suite.checks"),
    "flag-string": ('{"dim": 2, "require_nondegenerate": "false"}', "require_nondegenerate"),
    "flag-int": ('{"dim": 2, "require_symmetric": 1}', "require_symmetric"),
    "weight-negative": ('{"dim": 2, "suite": {"max_weight": -1}}', "suite.max_weight"),
    "weight-float": ('{"dim": 2, "suite": {"max_weight": 2.9}}', "suite.max_weight"),
    "weight-huge": ('{"dim": 2, "suite": {"max_weight": 25}}', "suite.max_weight"),
    "cap-string": ('{"dim": 2, "suite": {"dual_weight_cap": "6"}}', "suite.dual_weight_cap"),
    "cap-huge": ('{"dim": 2, "suite": {"dual_weight_cap": 13}}', "suite.dual_weight_cap"),
    "pbw-negative": ('{"dim": 2, "suite": {"pbw_words": -5}}', "suite.pbw_words"),
    "pairs-bool": ('{"dim": 2, "suite": {"sample_pairs": true}}', "suite.sample_pairs"),
    "seed-string": ('{"dim": 2, "suite": {"seed": "7"}}', "suite.seed"),
    "window-reversed": ('{"dim": 2, "suite": {"window": [2, -6]}}', "suite.window"),
    # each ran past 120 s before the window was bounded
    "window-hi-above-bound": ('{"dim": 1, "suite": {"window": [-6, 128]}}', "suite.window"),
    "window-lo-below-bound": ('{"dim": 1, "suite": {"window": [-2000000, 2]}}', "suite.window"),
    "json-too-deep": ('{"dim": ' + "[" * 50000, "<json>"),
    "unknown-top-key": ('{"dim": 2, "sute": {}}', "sute"),
    "unknown-module-key": (
        '{"dim": 2, "module": {"weights": ["0"], "action": [[["0"]], [["0"]]], "extra": 1}}',
        "module.extra",
    ),
    "unknown-suite-key": ('{"dim": 2, "suite": {"max_wieght": 1}}', "suite.max_wieght"),
    "pairs-zero": ('{"dim": 2, "suite": {"sample_pairs": 0}}', "suite.sample_pairs"),
    "pbw-zero": ('{"dim": 2, "suite": {"pbw_words": 0}}', "suite.pbw_words"),
    "dim-above-bound": (f'{{"dim": {MAX_DIM + 1}}}', "dim"),
}


@pytest.mark.parametrize("config, field", list(BAD_CONFIGS.values()), ids=list(BAD_CONFIGS))
def test_bad_config_value_exits_2_naming_field(capsys, config, field):
    code = main(["check", "-c", config])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {field}: ")
    assert "Traceback" not in captured.err
    assert "checks passed" not in captured.out


def test_dim_bound_is_inclusive():
    assert parse_config(f'{{"dim": {MAX_DIM}}}').h.dim == MAX_DIM


def test_dual_weight_cap_bound_is_inclusive():
    assert parse_config('{"dim": 2, "suite": {"dual_weight_cap": 12}}').dual_weight_cap == 12


def test_window_bounds_are_inclusive():
    lo, hi = WINDOW_BOUNDS
    assert parse_config(json.dumps({"dim": 1, "suite": {"window": [lo, hi]}})).window == (lo, hi)


def test_unknown_check_lists_valid_names(capsys):
    code = main(["check", "-c", '{"dim": 2, "suite": {"checks": ["asociativity"]}}'])
    err = capsys.readouterr().err
    assert code == 2
    assert "asociativity" in err
    assert all(name in err for name in CHECKS)


def test_unknown_key_lists_valid_keys(capsys):
    for config, valid in [
        ('{"dim": 2, "sute": {}}', TOP_KEYS),
        ('{"dim": 2, "module": {"extra": 1}}', MODULE_KEYS),
        ('{"dim": 2, "suite": {"max_wieght": 1}}', SUITE_KEYS),
    ]:
        assert main(["check", "-c", config]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in valid)


# per subcommand: a valid invocation (exit 0) and a malformed one (exit 2)
DIM1 = ["-c", '{"dim": 1}']
SUBCOMMANDS = {
    "check": (
        ["check", "-c", '{"dim": 1, "suite": {"checks": ["graded-dimensions"]}}', "--seed", "3"],
        ["check", "-c", '{"dim": 1, "suite": {"checks": ["graded-dimensions"], "seed": 1.5}}'],
    ),
    "product": (
        ["product", *DIM1, "-u", "a1(-1)1", "-u", "a1(-1)1"],
        ["product", *DIM1, "-u", "a1(-1)1", "-u", "a1(-1)1", "--seed", "1"],
    ),
    "iterate": (
        ["iterate", *DIM1, "-u", "a1(-1)1", "-u", "a1(-1)1"],
        ["iterate", *DIM1, "-u", "a1(-1)1", "-u", "a1(-1)1", "-u", "a1(-1)1"],
    ),
    "series": (
        ["series", *DIM1, "-u", "a1(-2)1", "--window=-1:1"],
        ["series", *DIM1, "-u", "a1(-2)1", "--window", "-1"],
    ),
    "normalform": (
        ["normalform", *DIM1, "a1(1)a1(-1)"],
        ["normalform", *DIM1, "a1(1)b"],
    ),
    "quotient": (
        ["quotient", *DIM1, "-u", "a1(-1)1"],
        ["quotient", *DIM1, "-u", "1/0*a1(-1)1"],
    ),
}


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_subcommand_exit_codes(capsys, name):
    good, bad = SUBCOMMANDS[name]
    assert main(good) == 0
    assert main(bad) == 2
    if name != "check":  # the seed only steers the suite's samples
        assert main(good + ["--seed", "1"]) == 2
    assert "Traceback" not in capsys.readouterr().err


# a subcommand flag out of its domain: exit 2, and the message names the flag
FLAG_ERRORS = {
    "window-reversed": (["series", *DIM1, "-u", "a1(-2)1", "--window=5:1"], "--window"),
    "window-malformed": (["series", *DIM1, "-u", "a1(-2)1", "--window", "-1"], "--window"),
    "window-above-bound": (["series", *DIM1, "-u", "a1(-2)1", "--window=0:47905"], "--window"),
    "window-above-bound-high-order": (
        ["series", *DIM1, "-u", "a1(-3000)1", "--window=0:47904"], "--window",
    ),
    "window-above-bound-high-order-edge": (
        ["series", *DIM1, "-u", "a1(-3000)1", "--window=0:77"], "--window",
    ),
    "window-above-bound-4-letters": (
        ["series", *DIM1, "-u", "a1(-1)a1(-1)a1(-1)a1(-1)1", "--window=0:64"], "--window",
    ),
    # the vacuum's 3-letter edge spends the whole budget, so any other state
    # passes it there
    "window-at-vacuum-edge-on-a-state": (
        ["series", *DIM1, "-u", "a1(-1)a1(-1)a1(-1)1", "--state", "a1(-1)1", "--window=0:64"],
        "--window",
    ),
    "config-window-above-bound": (
        ["series", "-c", '{"dim": 1, "suite": {"window": [0, 65]}}', "-u", "a1(-1)a1(-1)a1(-1)1"],
        "suite.window",
    ),
    "config-window-above-series-bound": (
        ["series", "-c", '{"dim": 1, "suite": {"window": [0, 16]}}', "-u", "a1(-1)" * 7 + "1"],
        "suite.window",
    ),
    "iterate-three-u": (["iterate", *DIM1, "-u", "a1(-1)1", "-u", "a1(-1)1", "-u", "1"], "-u"),
    "product-above-weight-bound": (["product", *DIM1, "-u", "a1(-7200)1", "-u", "a1(-7200)1"], "-u"),
    "iterate-above-weight-bound": (["iterate", *DIM1, "-u", "a1(-7200)1", "-u", "a1(-7200)1"], "-u"),
    "series-two-u": (["series", *DIM1, "-u", "a1(-1)1", "-u", "a1(-2)1"], "-u"),
    "normalform-above-pair-bound": (["normalform", *DIM1, "a1(1)" * 8 + "a1(-1)" * 8], "expr"),
    "normalform-above-work-budget-edge": (["normalform", *DIM1, "a1(1)" * 500 + "a1(-1)"], "expr"),
    "dual-basis-index-above-module-dim": (
        ["product", "-c", json.dumps({"dim": 1, "module": SWAP_MODULE}), "-u", "1", "-u", "1", "--dual", "1@3"],
        "--dual",
    ),
    "state-basis-index-above-module-dim": (["series", *DIM1, "-u", "a1(-1)1", "--state", "1@2"], "--state"),
    "product-u-zero-denominator": (["product", *DIM1, "-u", "1/0*1", "-u", "1"], "-u"),
    "series-u-index-above-dim": (["series", *DIM1, "-u", "a3(-1)1"], "-u"),
    "quotient-u-positive-mode": (["quotient", *DIM1, "-u", "a1(1)1"], "-u"),
    "normalform-malformed-mode": (["normalform", *DIM1, "a1(x)"], "expr"),
    "normalform-k-power-missing": (["normalform", *DIM1, "k^"], "expr"),
    "normalform-k-power-zero": (["normalform", *DIM1, "k^0"], "expr"),
    "normalform-k-power-negative": (["normalform", *DIM1, "k^-1"], "expr"),
    "normalform-k-power-fraction": (["normalform", *DIM1, "k^1/2"], "expr"),
    "normalform-k-power-above-budget": (["normalform", *DIM1, "k^500001"], "expr"),
}


@pytest.mark.parametrize("argv, flag", list(FLAG_ERRORS.values()), ids=list(FLAG_ERRORS))
def test_flag_error_exits_2_naming_flag(capsys, argv, flag):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {flag}: ")
    assert captured.out == ""


def test_pairing_work_names_dual_and_state(capsys):
    # the annihilation splits of a 14-letter residual on a 15-letter state
    # apply past the budget (13 letters on 15 too, 12 answer); a memo hit
    # would charge nothing
    mosva.wick._annihilated.cache_clear()
    argv = ["product", *DIM1, "-u", "a1(-1)1", "-u", "a1(-1)" * 14 + "1", "--state", "a1(-1)" * 15 + "1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: --dual/--state: ")


def _python(args):
    """One Python process running the package, and its wall time."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mosva.__file__)))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=30, env=env)
    return done, time.perf_counter() - start


def _cli_process(argv):
    return _python(["-m", "mosva.cli", *argv])


@lru_cache(maxsize=None)
def _startup_s():
    """Wall time of a process that only imports the CLI, best of three."""
    return min(_python(["-c", "import mosva.cli"])[1] for _ in range(3))


LONG_STATE = "a1(-1)a2(-1)" * 20 + "1"
FIVE_ORDERS = "a1(-1)a1(-2)a1(-3)a1(-4)a1(-5)1"
# inputs that ran for seconds within every up-front bound the CLI had: five
# operands spent 3 s bringing 210 parts over one denominator, the 40-letter
# state 8 s at 0:40 and 22 s at 0:64, and a1(1)^6000 a1(-1) 21 s in 12,001
# rewrites of 6,001 letters each
METERED = {
    "five-operands": (["product", *DIM1] + ["-u", "a1(-1)a1(-1)1"] * 5, "-u"),
    "long-state-0:40": (
        ["series", "-c", '{"dim": 2}', "-u", "a1(-1)a2(-2)a1(-1)1", "--state", LONG_STATE, "--window=0:40"],
        "--window",
    ),
    "long-state-0:64": (
        ["series", "-c", '{"dim": 2}', "-u", "a1(-1)a2(-2)a1(-1)1", "--state", LONG_STATE, "--window=0:64"],
        "--window",
    ),
    "normalform-6000": (["normalform", *DIM1, "a1(1)" * 6000 + "a1(-1)"], "expr"),
    # one total high above the series' lower bound holds comb(hi + k - 1, k - 1)
    # fills, charged before they are built (50M for 3 letters here)
    "narrow-window-3-letters": (
        ["series", *DIM1, "-u", "a1(-1)a1(-1)a1(-1)1", "--window=10000:10000"], "--window",
    ),
    "narrow-window-4-letters": (
        ["series", *DIM1, "-u", "a1(-1)a1(-1)a1(-1)a1(-1)1", "--window=400:400"], "--window",
    ),
    # each annihilating step charges its applied terms as the splits grow:
    # enumerated up front, the 12-letter word's splits ran past 60 s
    "annihilation-12-letters": (
        ["series", *DIM1, "-u", "a1(-1)" * 12 + "1", "--state", FIVE_ORDERS, "--window=-20:-10"], "--window",
    ),
    "annihilation-30-letters": (
        ["series", *DIM1, "-u", "a1(-1)" * 30 + "1", "--state", FIVE_ORDERS, "--window=-20:-10"], "--window",
    ),
    # a pole of order 6,000: its binomial row took 2.4 s built term by term
    "four-operands-a1(-3000)": (["product", *DIM1] + ["-u", "a1(-3000)1"] * 4, "-u"),
}


@pytest.mark.parametrize("argv, flag", list(METERED.values()), ids=list(METERED))
def test_metered_inputs_end_quickly(argv, flag):
    done, elapsed = _cli_process(argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(f"error: {flag}: ")
    assert elapsed - _startup_s() < 1


def test_a_far_dual_answers_at_once():
    # the dual's fill is read off its one letter, not found among the
    # residual's million fills at its weight
    done, elapsed = _cli_process(["product", *DIM1, "-u", "a1(-1)1", "-u", "a1(-1)1", "--dual", "a1(-1000000)1"])
    assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")
    assert elapsed - _startup_s() < 1


def test_a_refused_input_ends_the_same_way_twice():
    first, _ = _cli_process(METERED["five-operands"][0])
    second, _ = _cli_process(METERED["five-operands"][0])
    assert (first.returncode, first.stderr) == (second.returncode, second.stderr)
    assert first.returncode == 2


def test_the_library_runs_unmetered():
    # past normalform's budget, which only the CLI sets
    out = pbw_normal_form(parse_hat_word("a1(1)" * 500 + "a1(-1)", 1), HSpace.identity(1))
    assert out == {(((0, -1),), ((0, 1),) * 500, (), 0): 1, ((), ((0, 1),) * 499, (), 1): 500}


@pytest.mark.parametrize("argv", [
    SUBCOMMANDS["normalform"][0],  # success
    FLAG_ERRORS["normalform-above-work-budget-edge"][0],  # refused by the meter
    ["product", *DIM1, "-u", "a9(-1)1"],  # a parse error inside the metered block
], ids=["success", "refusal", "parse-error"])
def test_no_budget_outlives_a_cli_run(argv, capsys):
    main(argv)
    charge(10**18, "test")  # raises only under a budget


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(TOP_KEYS + MODULE_KEYS + SUITE_KEYS), inner, max_size=4),
    max_leaves=12,
)


# near-grammatical element strings: indices and modes out of range, zero
# denominators, missing '1' terminators
ELEM_TERMS = st.builds(
    lambda coeff, gens, end: coeff + "".join(gens) + end,
    st.just("") | st.builds("{}/{}*".format, st.integers(-2, 3), st.integers(-1, 3)),
    st.lists(st.builds("a{}({})".format, st.integers(0, 3), st.integers(-3, 1)), max_size=3),
    st.sampled_from(["1", "", "1)"]),
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    st.text()
    | st.text(alphabet="a1234567890()-+/*k {}[],:\"").map(lambda t: "{" + t)
    | st.lists(ELEM_TERMS, min_size=1, max_size=3).map(" - ".join)
    | st.dictionaries(st.sampled_from(TOP_KEYS), JSON_VALUES, max_size=4).map(json.dumps)
)
def test_parsers_raise_only_their_own_errors(text):
    try:
        parse_config(text)
    except ConfigError:
        pass
    try:
        parse_elem(text, 2)
    except ElemParseError:
        pass


# -- whole-CLI fuzz -----------------------------------------------------------------

# small integers only: a series window costs time in proportion to its width
SMALL = st.integers(-8, 8)


def _faulty(valid, faults):
    """Mostly the valid value, sometimes one of the faults applied to it."""
    return st.builds(lambda v, fault: fault(v), valid, st.sampled_from([lambda v: v] * 4 + faults))


FUZZ_ELEMS = _faulty(
    st.lists(
        st.builds(
            lambda coeff, gens: coeff + "".join(gens) + "1",
            st.sampled_from(["", "2*", "1/2*", "-1/2*"]),
            st.lists(st.builds("a{}({})".format, st.integers(1, 2), st.integers(-8, -1)), max_size=2),
        ),
        min_size=1, max_size=2,
    ).map(" + ".join),
    [lambda e: e + ")", lambda e: e[:-1], lambda e: e.replace("a2", "a9"),
     lambda e: "1/0*" + e, lambda e: e.replace("(-", "("), lambda e: ""],
)
FUZZ_HAT_WORDS = _faulty(
    st.lists(st.sampled_from(["k"]) | st.builds("a{}({})".format, st.integers(1, 2), SMALL), max_size=4)
    .map("".join),
    [lambda e: e + "b", lambda e: e + "1", lambda e: e.replace("a1", "a0")],
)
FUZZ_WINDOWS = _faulty(
    st.lists(SMALL, min_size=2, max_size=2).map(lambda ends: "{}:{}".format(*sorted(ends))),
    [lambda w: w[::-1], lambda w: w.replace(":", ""), lambda w: w + ":1", lambda w: "a:b"],
)


def _tiny_config(dim, rational_form, checks, max_weight, window, counts, seed):
    config = {"dim": dim, "suite": {
        "checks": checks, "max_weight": max_weight, "window": sorted(window),
        "sample_pairs": counts[0], "pbw_words": counts[1], "seed": seed,
    }}
    if dim == 2 and rational_form:
        config["form"] = [["1", "1/2"], ["1/3", "2"]]
    return config


def _suite_fault(key, value):
    return lambda c: {**c, "suite": {**c["suite"], key: value}}


# every config is tiny: dim at most 3, max_weight at most 2, at most two checks
FUZZ_CONFIGS = _faulty(
    st.builds(
        _tiny_config, st.integers(1, 3), st.booleans(),
        st.lists(st.sampled_from(list(CHECKS)), max_size=2), st.integers(1, 2),
        st.lists(SMALL, min_size=2, max_size=2), st.tuples(st.integers(1, 2), st.integers(1, 20)), SMALL,
    ).map(json.dumps),
    [lambda c: c.replace('"dim": ', '"dim": -'), lambda c: c.replace('"suite"', '"sute"'),
     lambda c: c.replace('"form": [', '"form": [[], '), lambda c: c[:-1], lambda c: "[" + c + "]",
     lambda c: json.dumps(_suite_fault("max_weight", 0)(json.loads(c))),
     lambda c: json.dumps(_suite_fault("window", [1, 0])(json.loads(c))),
     lambda c: json.dumps(_suite_fault("checks", ["asociativity"])(json.loads(c))),
     lambda c: "no-such-config.json"],
)
STRAY = st.sampled_from([
    ["--format", "json"], ["--format", "xml"], ["--seed", "1"], ["--seed", "x"],
    ["--bogus"], ["-u"], ["stray"], ["--window"],
])


@st.composite
def fuzz_argv(draw):
    """One command line of a subcommand, near its grammar, with stray flags."""
    command = draw(st.sampled_from(["check", "product", "iterate", "series", "normalform", "quotient"]))
    argv = [command]
    uses = {"product": draw(st.integers(1, 3)), "iterate": 2, "series": 1, "quotient": draw(st.integers(1, 2))}
    for _ in range(uses.get(command, 0)):
        argv.append("-u" + draw(FUZZ_ELEMS))
    flags = {"product": ["--dual", "--state"], "iterate": ["--dual", "--state"], "series": ["--state"]}
    for flag in flags.get(command, []):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(FUZZ_ELEMS)}")
    if command == "series" and draw(st.booleans()):
        argv.append("--window=" + draw(FUZZ_WINDOWS))
    if command == "normalform":
        argv.append(draw(FUZZ_HAT_WORDS))
    if command == "check" or draw(st.booleans()):  # check never runs the default suite
        argv += ["-c", draw(FUZZ_CONFIGS)]
    for stray in draw(st.lists(STRAY, max_size=1)):
        argv += stray
    return argv


@settings(max_examples=500)
@given(fuzz_argv())
def test_whole_cli_runs_end_in_an_exit_code(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
