"""Command-line interface: config ingestion, element parsing, and rendering.

Element grammar (shared by every command):

    elem := ['-'] term (('+'|'-') term)*
    term := [rational '*']? word ['@' INT] | '0'
    word := gen* '1'
    gen  := 'a' INDEX '(' '-'? INT ')'

with rationals written p/q or as integers, e.g. ``1/2*a1(-1)a2(-2)1 + a2(-1)1``.
A leading '-' is the first term's sign, so ``-a1(-1)1`` and ``-1`` (minus
the vacuum) parse, and ``0`` is the zero element: every printed element
reads back.  Only --state and --dual take '@k': the term sits on the
module's k-th basis vector, 1-based, and on the first without it.
The normalform command instead takes a bare generator word over the full
algebra: modes of any sign plus the central symbol ``k``, and ``k^c`` for c
of them, e.g. ``a1(1)a1(-1)k^2``: every printed normal form reads back.

Configs are JSON with every number carried as an exact "p/q" string; see the
README for the schema.  Exit codes: 0 success, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from fractions import Fraction
from math import comb
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .halgebra import (
    CENTRAL,
    FreeElem,
    HSpace,
    HatGen,
    add_into,
    add_terms,
    mode,
    pbw_normal_form,
    render_free_elem,
    render_pbw_elem,
    validate_hspace,
    word_sort_key,
    word_weight,
)
from .checks import MAX_DIM, ConfigError, SuiteConfig, _is_int, project_to_sym, run_suite
from .fields import series_lower_bound, vertex_series
from .modules import (
    ModulePresentation,
    WElem,
    render_pairs,
    validate_module,
)
from .scalars import MODE_TERMS, WorkLimit, format_rational, parse_rational, work_budget
from .wick import matrix_coeff_product


# a series coefficient is at most comb(W + hi - 1, hi) for a word of weight W,
# the sum of its orders, at top exponent hi: 512 bits, which 1 letter of order
# 45 reaches at 0:47904 in 1.4 s and 137 MB (order 1: 1.0 s and 104 MB)
MAX_SERIES_COEFF_BITS = 512
# a contraction of orders m and n carries n * C(m+n-1, m-1) < n * 2^(m+n-1),
# and a term contracts each letter at most once, so a product whose operands'
# weights sum to W keeps its scalars near 0.301 * W digits: a1(-6000)1 +
# a1(-3000)1 against a1(-6000)1, and a1(-3000)a1(-3000)1 twice, print at most
# 3,616, inside Python's 4,300-digit limit for printing an integer
MAX_PRODUCT_WEIGHT = 12000
# work budgets per command, in the units the library charges (scalars.charge),
# measured in-process, one run each, on a 2-core shared host: a1(-1)^6 1 twice
# contracts in 13,328 patterns and 0.22 s (^7: 130,923 and 2.4 s); a series of
# 3 letters at 0:64 applies comb(67, 3) = 47,905 mode terms in 0.5 s (4 letters:
# 814,385 in 16 s); a1(1)^6 a1(-1)^6 rewrites 417,705 letters in 0.2 s (7 and 7:
# 4,969,916 in 2.3 s).  check and quotient run unmetered
WORK_BUDGETS = {"product": 20000, "iterate": 20000, "series": comb(67, 3), "normalform": 500000}


class ElemParseError(ValueError):
    def __init__(self, text: str, offset: int, message: str):
        super().__init__(f"offset {offset}: {message} (in {text!r})")
        self.offset = offset


# -- element parsing -------------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ElemParseError(self.text, self.pos, f"expected {ch!r}")
        self.pos += 1

    def scan_int(self) -> int:
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.peek().isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise ElemParseError(self.text, start, "expected an integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than int() converts
            raise ElemParseError(self.text, start, "integer too long") from None

    def scan_rational_text(self) -> str:
        start = self.pos
        self.scan_int()
        if self.peek() == "/":
            self.pos += 1
            self.scan_int()
        return self.text[start:self.pos]


def _parse_gen(sc: _Scanner, dim: int, require_negative: bool) -> Tuple[int, int]:
    at = sc.pos
    sc.expect("a")
    index = sc.scan_int()
    if not 1 <= index <= dim:
        raise ElemParseError(sc.text, at, f"index a{index} out of range for dim {dim}")
    sc.expect("(")
    n = sc.scan_int()
    sc.expect(")")
    if require_negative and n >= 0:
        raise ElemParseError(sc.text, at, f"mode {n} must be negative here")
    return index - 1, n


def parse_elem(text: str, dim: int) -> FreeElem:
    """Parse a creation-word combination; raises ElemParseError with offset."""
    return {word: c for (word, _), c in parse_state(text, dim, 0).items()}


def parse_state(text: str, dim: int, mdim: int) -> WElem:
    """Parse a combination of basis pairs word@k, k from 1 to mdim and 1 when
    left off (mdim 0 takes no '@k'); raises ElemParseError with offset."""
    sc = _Scanner(text)
    out: WElem = {}
    sc.skip_ws()
    sign = _next_sign(sc) if sc.peek() == "-" else 1
    while sign is not None:
        sc.skip_ws()
        coeff, word = sign, None
        if sc.peek().isdigit() or sc.peek() == "-":
            at = sc.pos
            rat = sc.scan_rational_text()
            sc.skip_ws()
            if sc.peek() == "*":
                sc.pos += 1
                try:
                    coeff = sign * parse_rational(rat)
                except ValueError as exc:  # zero denominator
                    raise ElemParseError(text, at, str(exc)) from None
                sc.skip_ws()
            elif rat == "1":
                word = ()
            elif rat == "0":  # the zero term
                sign = _next_sign(sc)
                continue
            else:
                raise ElemParseError(text, at, "number must be a coefficient (p/q*), the word '1' or 0")
        if word is None:
            factors = []
            while sc.peek() == "a":
                factors.append(_parse_gen(sc, dim, require_negative=True))
            if sc.peek() != "1":
                raise ElemParseError(text, sc.pos, "word must end with '1'")
            sc.pos += 1
            word = tuple((i, -n) for i, n in factors)
        index = 0
        if mdim and sc.peek() == "@":
            at, sc.pos = sc.pos, sc.pos + 1
            index = sc.scan_int() - 1
            if not 0 <= index < mdim:
                raise ElemParseError(text, at, f"index @{index + 1} out of range for module dim {mdim}")
        add_into(out, (word, index), coeff)
        sign = _next_sign(sc)
    return out


def _next_sign(sc: _Scanner) -> Optional[int]:
    sc.skip_ws()
    if sc.pos >= len(sc.text):
        return None
    ch = sc.peek()
    if ch == "+":
        sc.pos += 1
        return 1
    if ch == "-":
        sc.pos += 1
        return -1
    raise ElemParseError(sc.text, sc.pos, "expected '+', '-', or end of input")


def parse_hat_word(text: str, dim: int) -> List[HatGen]:
    """Parse a generator word over the full algebra: any modes, plus 'k' and
    'k^c', c copies of it for an integer c from 1 to the normalform budget."""
    sc = _Scanner(text)
    gens: List[HatGen] = []
    while True:
        sc.skip_ws()
        ch = sc.peek()
        if not ch:
            return gens
        if ch == "k":
            sc.pos += 1
            power = 1
            if sc.peek() == "^":
                sc.pos += 1
                at, power, most = sc.pos, sc.scan_int(), WORK_BUDGETS["normalform"]
                if not 1 <= power <= most:  # normalform rewrites at most that many letters
                    raise ElemParseError(text, at, f"power of k must be from 1 to {most}")
            gens += [CENTRAL] * power
        elif ch == "a":
            i, n = _parse_gen(sc, dim, require_negative=False)
            gens.append(mode(i, n))
        elif ch == "1" and sc.pos == len(sc.text.rstrip()) - 1:
            sc.pos += 1  # optional trailing vacuum marker
        else:
            raise ElemParseError(text, sc.pos, "expected a generator, 'k', or end")


# -- config ingestion -------------------------------------------------------------


def _rational_at(value, path: str) -> Fraction:
    if not isinstance(value, str) and not isinstance(value, int):
        raise ConfigError(path, f"expected a rational string, got {type(value).__name__}")
    try:
        return parse_rational(str(value))
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _matrix_at(value, r: int, path: str):
    if not isinstance(value, list) or len(value) != r:
        raise ConfigError(path, f"expected {r} rows")
    rows = []
    for s, row in enumerate(value):
        if not isinstance(row, list) or len(row) != r:
            raise ConfigError(f"{path}[{s}]", f"expected {r} entries")
        rows.append([_rational_at(x, f"{path}[{s}][{t}]") for t, x in enumerate(row)])
    return rows


def _reject_unknown(raw: dict, valid: Sequence[str], prefix: str = "") -> None:
    for key in raw:
        if key not in valid:
            raise ConfigError(prefix + key, f"unknown key; valid keys: {', '.join(valid)}")


def _flag_at(raw: dict, name: str) -> bool:
    value = raw.get(name, False)
    if not isinstance(value, bool):
        raise ConfigError(name, f"must be true or false, got {value!r}")
    return value


TOP_KEYS = ("dim", "form", "require_nondegenerate", "require_symmetric", "module", "suite")
MODULE_KEYS = ("weights", "action", "Dm")
SUITE_KEYS = tuple(f.name for f in fields(SuiteConfig) if f.name not in ("h", "module"))


def parse_config(source: str) -> SuiteConfig:
    """Parse a JSON config from a path or literal text; validates everything."""
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, ValueError) as exc:  # ValueError: NUL in path, undecodable file
            raise ConfigError("<path>", str(exc)) from None
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits, too deep nesting
        raise ConfigError("<json>", str(exc)) from None
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be an object")
    _reject_unknown(raw, TOP_KEYS)
    dim = raw.get("dim")
    if not _is_int(dim) or not 1 <= dim <= MAX_DIM:
        raise ConfigError("dim", f"must be an integer from 1 to {MAX_DIM}, got {dim!r}")
    form = raw.get("form")
    if form is None:
        h = HSpace.identity(dim)
    else:
        h = HSpace.from_rows(_matrix_at(form, dim, "form"))
    problems = validate_hspace(
        h,
        require_nondegenerate=_flag_at(raw, "require_nondegenerate"),
        require_symmetric=_flag_at(raw, "require_symmetric"),
    )
    if problems:
        raise ConfigError("form", "; ".join(problems))

    module_raw = raw.get("module")
    if module_raw is None:
        module = ModulePresentation.trivial(dim)
    else:
        if not isinstance(module_raw, dict):
            raise ConfigError("module", "must be an object")
        _reject_unknown(module_raw, MODULE_KEYS, "module.")
        weights = module_raw.get("weights")
        if not isinstance(weights, list) or not weights:
            raise ConfigError("module.weights", "must be a nonempty list")
        r = len(weights)
        weights = [
            _rational_at(x, f"module.weights[{s}]") for s, x in enumerate(weights)
        ]
        action = module_raw.get("action")
        if not isinstance(action, list) or len(action) != dim:
            raise ConfigError("module.action", f"expected {dim} matrices")
        matrices = [
            _matrix_at(m, r, f"module.action[{i}]") for i, m in enumerate(action)
        ]
        dm = _matrix_at(module_raw.get("Dm", [[0] * r] * r), r, "module.Dm")
        module = ModulePresentation.build(weights, matrices, dm)
        bad = validate_module(module)
        if bad:
            raise ConfigError("module", "; ".join(bad))

    suite_raw = raw.get("suite", {})
    if not isinstance(suite_raw, dict):
        raise ConfigError("suite", "must be an object")
    _reject_unknown(suite_raw, SUITE_KEYS, "suite.")
    try:
        return SuiteConfig(h=h, module=module, **suite_raw)
    except ConfigError as exc:
        raise ConfigError(f"suite.{exc.path}", exc.message) from None


DEFAULT_CONFIG = '{"dim": 2}'


# -- rendering helpers --------------------------------------------------------------


def state_to_json(welem: WElem):
    return [
        {
            "word": [[i + 1, m] for i, m in word],
            "index": s + 1,
            "coeff": format_rational(welem[(word, s)]),
        }
        for (word, s) in sorted(welem, key=lambda k: (word_sort_key(k[0]), k[1]))
    ]


def _parse_arg(flag: str, parse: Callable, text: str, *dims: int):
    """parse(text, *dims), with a parse error led by the flag the text came from."""
    try:
        return parse(text, *dims)
    except ElemParseError as exc:
        raise ConfigError(flag, str(exc)) from None


# -- commands ------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, run) -> None:
    p.set_defaults(run=run)
    p.add_argument("-c", "--config", default=None, help="JSON config path or literal")
    p.add_argument("--format", choices=("text", "json"), default="text")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse takes a value that starts with '-', such as -u "-a1(-1)1",
        # for an option of its own and reports the flag's value missing
        if message.startswith("argument ") and message.endswith(": expected one argument"):
            flag = message[len("argument "):message.index(":")].split("/")[-1]
            message += f"; a value that starts with '-' must be attached with '=' ({flag}=VALUE)"
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mosva",
        description="Exact vertex-operator computations on the free boson tensor algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the verification suite")
    _add_common(p, cmd_check)
    p.add_argument("--seed", type=int, default=None, help="overrides suite.seed")

    for name, what in (("product", "a product of operators"), ("iterate", "an iterate of two operators")):
        p = sub.add_parser(name, help=f"matrix coefficient of {what}")
        _add_common(p, cmd_product)
        p.add_argument("-u", action="append", required=True, help="operator element, outermost first")
        p.add_argument("--dual", default=None, help="dual-basis combination")
        p.add_argument("--state", default=None, help="starting state")

    p = sub.add_parser("series", help="coefficients of one vertex operator series")
    _add_common(p, cmd_series)
    p.add_argument("-u", action="append", required=True)
    p.add_argument("--state", default=None)
    p.add_argument("--window", default=None, help="lo:hi exponent range")

    p = sub.add_parser("normalform", help="block normal form of a generator word")
    _add_common(p, cmd_normalform)
    p.add_argument("expr", help="generator word, e.g. 'a1(1)a1(-1)'")

    p = sub.add_parser("quotient", help="projection onto the symmetric algebra")
    _add_common(p, cmd_quotient)
    p.add_argument("-u", action="append", required=True)

    return parser


def _emit(args, text_value: str, json_value) -> None:
    """Print a command's output.  When the reader closes the pipe early, the
    rest is dropped and the command still returns its own exit code."""
    text = json.dumps(json_value, indent=2, sort_keys=True) if args.format == "json" else text_value
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # what is left goes nowhere, so the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_check(args, config: SuiteConfig) -> int:
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    reports = run_suite(config)
    passed = sum(1 for r in reports if r.passed)
    lines = [r.line() for r in reports] + [f"{passed}/{len(reports)} checks passed"]
    payload = [
        {
            "name": r.name,
            "passed": r.passed,
            "detail": r.detail,
            "params": {k: str(v) for k, v in r.params.items()},
        }
        for r in reports
    ]
    _emit(args, "\n".join(lines), payload)
    return 0 if passed == len(reports) else 1


def cmd_product(args, config: SuiteConfig) -> int:
    # an iterate's rational function is the product's; only its region differs
    if args.command == "iterate" and len(args.u) != 2:
        raise ConfigError("-u", "iterate needs exactly two elements")
    us = [_parse_arg("-u", parse_elem, text, config.h.dim) for text in args.u]
    total = sum(max(map(word_weight, u), default=0) for u in us)
    if total > MAX_PRODUCT_WEIGHT:
        raise ConfigError("-u", f"operand weights must sum to at most {MAX_PRODUCT_WEIGHT}, got {total}")
    dims = (config.h.dim, config.module.dim)
    f = _parse_arg("--dual", parse_state, args.dual or "1", *dims)
    w = _parse_arg("--state", parse_state, args.state or "1", *dims)
    rf = matrix_coeff_product(config.h, config.module, us, f, w)
    _emit(args, rf.render(), rf.to_json())
    return 0


def cmd_series(args, config: SuiteConfig) -> int:
    if len(args.u) != 1:
        raise ConfigError("-u", "series takes exactly one element")
    u = _parse_arg("-u", parse_elem, args.u[0], config.h.dim)
    w = _parse_arg("--state", parse_state, args.state or "1", config.h.dim, config.module.dim)
    lo, hi = config.window
    if args.window:
        try:
            lo, hi = (int(x) for x in args.window.split(":"))
        except ValueError:
            raise ConfigError("--window", "must be lo:hi integers") from None
        if lo > hi:
            raise ConfigError("--window", f"must be lo:hi with lo <= hi, got {args.window}")
    weight, cap = max(map(word_weight, u), default=0), MAX_SERIES_COEFF_BITS
    least = min(hi, weight - 1)  # comb(weight + hi - 1, hi) has more bits than this
    if least > 0 and (least >= cap or comb(weight + hi - 1, hi).bit_length() > cap):
        raise ConfigError("--window" if args.window else "suite.window",
                          f"coefficients pass {cap} bits at x^{hi} for weight {weight}")
    series = vertex_series(config.h, config.module, u, w, lo, hi)
    bound = series_lower_bound(config.h, config.module, u, w)
    lines = [f"x^{e}: {render_pairs(series[e])}" for e in sorted(series)]
    lines.append(f"(coefficients vanish below exponent {bound})")
    payload = {
        "coefficients": {str(e): state_to_json(series[e]) for e in sorted(series)},
        "lower_bound": bound,
    }
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_normalform(args, config: SuiteConfig) -> int:
    out = pbw_normal_form(_parse_arg("expr", parse_hat_word, args.expr, config.h.dim), config.h)
    text = render_pbw_elem(out)
    payload = [
        {
            "negatives": [[i + 1, n] for i, n in key[0]],
            "positives": [[i + 1, n] for i, n in key[1]],
            "zeros": [i + 1 for i in key[2]],
            "central_power": key[3],
            "coeff": format_rational(out[key]),
        }
        for key in sorted(out, key=lambda k: (k[3], k))
    ]
    _emit(args, text, payload)
    return 0


def cmd_quotient(args, config: SuiteConfig) -> int:
    combined: Dict = {}
    for text in args.u:
        add_terms(combined, _parse_arg("-u", parse_elem, text, config.h.dim).items())
    projected = project_to_sym(combined)
    text = render_free_elem(projected)
    payload = [
        {"word": [[i + 1, m] for i, m in word], "coeff": format_rational(c)}
        for word, c in sorted(projected.items(), key=lambda kv: word_sort_key(kv[0]))
    ]
    _emit(args, text, payload)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with work_budget(WORK_BUDGETS.get(args.command)):
            return args.run(args, parse_config(args.config or DEFAULT_CONFIG))
    except WorkLimit as exc:
        print(f"error: {_refusal(args, exc.args[0])}", file=sys.stderr)
        return 2
    except (ConfigError, ElemParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _refusal(args, stage: str) -> str:
    """Why the command's metered work stopped, led by the flag that sizes it."""
    if args.command in ("product", "iterate"):
        flag = "--dual/--state" if stage == MODE_TERMS else "-u"
    elif args.command == "normalform":
        flag = "expr"
    else:
        flag = "--window" if args.window else "suite.window"
    return f"{flag}: {stage} pass the work budget of {WORK_BUDGETS[args.command]}"


if __name__ == "__main__":
    sys.exit(main())
