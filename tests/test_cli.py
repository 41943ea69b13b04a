"""Config parsing, the element grammar, and command outputs."""

import json
from fractions import Fraction

import pytest

from mosva.checks import CHECKS
from mosva.cli import (
    ConfigError,
    ElemParseError,
    main,
    parse_config,
    parse_elem,
    parse_hat_word,
)
from mosva.halgebra import CENTRAL, mode, render_free_elem


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


def test_parse_hat_word_mixed_modes():
    gens = parse_hat_word("a1(1)a1(-1)", 1)
    assert gens == [mode(0, 1), mode(0, -1)]
    gens = parse_hat_word("k a1(0) a2(0)", 2)
    assert gens == [CENTRAL, mode(0, 0), mode(1, 0)]


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


def test_cmd_check_passes(capsys):
    code, out = run_cli(
        capsys, "check",
        "-c", '{"dim": 2, "suite": {"max_weight": 2, "sample_pairs": 4, "pbw_words": 40}}',
    )
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


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
    "pbw-negative": ('{"dim": 2, "suite": {"pbw_words": -5}}', "suite.pbw_words"),
    "pairs-bool": ('{"dim": 2, "suite": {"sample_pairs": true}}', "suite.sample_pairs"),
    "seed-string": ('{"dim": 2, "suite": {"seed": "7"}}', "suite.seed"),
    "window-reversed": ('{"dim": 2, "suite": {"window": [2, -6]}}', "suite.window"),
}


@pytest.mark.parametrize("config, field", list(BAD_CONFIGS.values()), ids=list(BAD_CONFIGS))
def test_bad_config_value_exits_2_naming_field(capsys, config, field):
    code = main(["check", "-c", config])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {field}: ")
    assert "checks passed" not in captured.out


def test_unknown_check_lists_valid_names(capsys):
    code = main(["check", "-c", '{"dim": 2, "suite": {"checks": ["asociativity"]}}'])
    err = capsys.readouterr().err
    assert code == 2
    assert "asociativity" in err
    assert all(name in err for name in CHECKS)
