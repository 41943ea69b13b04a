"""Golden CLI output: each argv below replays through `cli.main` and must print
the same stdout, byte for byte, and exit with the same code as recorded in
`golden_cli.json`.

A change that means to alter the output regenerates the file with

    PYTHONPATH=src python tests/test_golden_cli.py

and says why in its description; any other change leaves it as it is.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from mosva.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli.json")

# a rational nonsymmetric form and a dim-4 module with two weights,
# noncommuting zero modes and a nonzero Dm, checked by everything but
# translation-properties
RATIONAL_DIM4 = json.dumps({
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
    "suite": {
        "max_weight": 2, "dual_weight_cap": 4, "window": [-4, 2], "sample_pairs": 1, "pbw_words": 60,
        "checks": [
            "identity-creation", "grading-bracket", "rationality-product", "associativity",
            "rationality-iterate", "pbw-confluence", "graded-dimensions", "lower-bound",
            "quotient-homomorphism", "sym-crosscheck", "noncommutativity-witness",
        ],
    },
}, separators=(",", ":"))

DIM2 = ["-c", '{"dim": 2}']

ARGVS = [
    ["check", *DIM2, "--seed", "0", "--format", "json"],
    ["check", *DIM2, "--seed", "1", "--format", "json"],
    ["check", "-c", RATIONAL_DIM4, "--seed", "1", "--format", "json"],
    ["series", *DIM2, "-u", "1/2*a1(-1)a2(-2)1 - a2(-1)1", "--window=-3:2"],
    ["series", *DIM2, "-u", "a1(-2)1", "--window=-4:1", "--format", "json"],
    ["series", "-c", RATIONAL_DIM4, "-u", "a1(-1)a2(-1)1", "--state", "a2(-1)1@2 - 1/3*1@3", "--window=-3:1"],
    ["series", "-c", RATIONAL_DIM4, "-u", "a2(-2)1", "--state", "1@2", "--window=-4:0", "--format", "json"],
    ["product", *DIM2, "-u", "a1(-1)1", "-u", "a2(-1)a1(-1)1 + 1/2*1", "--dual", "a2(-1)1 - 3*a1(-1)1"],
    ["product", "-c", RATIONAL_DIM4, "-u", "a1(-1)1", "-u", "a2(-1)a1(-1)1", "--dual", "1@1",
     "--state", "1@2", "--format", "json"],
    ["iterate", *DIM2, "-u", "a1(-1)a2(-1)1", "-u", "a1(-2)1", "--dual", "a2(-1)1"],
    ["iterate", "-c", RATIONAL_DIM4, "-u", "a1(-1)1", "-u", "a2(-1)a1(-1)1", "--dual", "a1(-1)1@1",
     "--format", "json"],
    ["normalform", *DIM2, "a1(1)a2(2)a1(-1)a2(-2)k"],
    ["normalform", "-c", RATIONAL_DIM4, "a2(1)a1(0)a1(-1)", "--format", "json"],
    ["quotient", *DIM2, "-u", "a1(-1)a2(-1)1", "-u", "-a2(-1)a1(-1)1 + 1/2*a1(-2)1"],
    ["quotient", *DIM2, "-u", "a2(-1)a1(-2)1", "--format", "json"],
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_lists_every_argv(golden):
    assert [entry["argv"] for entry in golden] == ARGVS


@pytest.mark.parametrize("index", range(len(ARGVS)), ids=lambda i: f"{ARGVS[i][0]}-{i}")
def test_cli_output_matches_golden(golden, index):
    assert run(ARGVS[index]) == golden[index]


if __name__ == "__main__":
    entries = [run(argv) for argv in ARGVS]
    for entry in entries:
        if entry["code"] not in (0, 1) or not entry["stdout"]:
            sys.exit(f"no output to record for {entry['argv']} (exit {entry['code']})")
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=1)
        handle.write("\n")
