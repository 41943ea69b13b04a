"""Command-line interface: config ingestion, element parsing, and rendering.

Element grammar (shared by every command):

    elem := term (('+'|'-') term)*
    term := [rational '*']? word
    word := gen* '1'
    gen  := 'a' INDEX '(' '-'? INT ')'

with rationals written p/q or as integers, e.g. ``1/2*a1(-1)a2(-2)1 + a2(-1)1``.
The normalform command instead takes a bare generator word over the full
algebra: modes of any sign plus the central symbol ``k``, e.g. ``a1(1)a1(-1)``.

Configs are JSON with every number carried as an exact "p/q" string; see the
README for the schema.  Exit codes: 0 success, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

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
    render_word,
    validate_hspace,
    word_sort_key,
)
from .checks import CHECKS, MAX_SUITE_WEIGHT, SuiteConfig, project_to_sym, run_suite
from .fields import series_lower_bound, vertex_series
from .modules import (
    ModulePresentation,
    free_to_state,
    validate_module,
)
from .scalars import format_rational, parse_rational, render_signed_sum
from .wick import matrix_coeff_iterate, matrix_coeff_product


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


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
        return int(self.text[start:self.pos])

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
    sc = _Scanner(text)
    out: FreeElem = {}
    sign = Fraction(1)
    while True:
        sc.skip_ws()
        coeff = sign
        if sc.peek().isdigit() or sc.peek() == "-":
            at = sc.pos
            rat = sc.scan_rational_text()
            sc.skip_ws()
            if sc.peek() == "*":
                sc.pos += 1
                coeff = sign * parse_rational(rat)
                sc.skip_ws()
            elif rat == "1":
                add_into(out, (), coeff)
                sign = _next_sign(sc)
                if sign is None:
                    return out
                continue
            else:
                raise ElemParseError(text, at, "number must be a coefficient (p/q*) or the word '1'")
        factors = []
        while sc.peek() == "a":
            factors.append(_parse_gen(sc, dim, require_negative=True))
        at = sc.pos
        if sc.peek() != "1":
            raise ElemParseError(text, at, "word must end with '1'")
        sc.pos += 1
        add_into(out, tuple((i, -n) for i, n in factors), coeff)
        sign = _next_sign(sc)
        if sign is None:
            return out


def _next_sign(sc: _Scanner) -> Optional[Fraction]:
    sc.skip_ws()
    if sc.pos >= len(sc.text):
        return None
    ch = sc.peek()
    if ch == "+":
        sc.pos += 1
        return Fraction(1)
    if ch == "-":
        sc.pos += 1
        return Fraction(-1)
    raise ElemParseError(sc.text, sc.pos, "expected '+', '-', or end of input")


def parse_hat_word(text: str, dim: int) -> List[HatGen]:
    """Parse a generator word over the full algebra: any modes, plus 'k'."""
    sc = _Scanner(text)
    gens: List[HatGen] = []
    while True:
        sc.skip_ws()
        ch = sc.peek()
        if not ch:
            return gens
        if ch == "k":
            sc.pos += 1
            gens.append(CENTRAL)
        elif ch == "a":
            i, n = _parse_gen(sc, dim, require_negative=False)
            gens.append(mode(i, n))
        elif ch == "1" and sc.pos == len(sc.text.rstrip()) - 1:
            sc.pos += 1  # optional trailing vacuum marker
        else:
            raise ElemParseError(text, sc.pos, "expected a generator, 'k', or end")


# -- config ingestion -------------------------------------------------------------


@dataclass
class Config:
    h: HSpace
    module: ModulePresentation
    suite: SuiteConfig


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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_at(
    raw: dict, name: str, default: int, lo: Optional[int], hi: Optional[int] = None
) -> int:
    value = raw.get(name, default)
    if (
        not _is_int(value)
        or (lo is not None and value < lo)
        or (hi is not None and value > hi)
    ):
        bound = "an integer" if lo is None else f"an integer >= {lo}"
        if hi is not None:
            bound += f" and <= {hi}"
        raise ConfigError(f"suite.{name}", f"must be {bound}, got {value!r}")
    return value


def _flag_at(raw: dict, name: str) -> bool:
    value = raw.get(name, False)
    if not isinstance(value, bool):
        raise ConfigError(name, f"must be true or false, got {value!r}")
    return value


def parse_config(source: str) -> Config:
    """Parse a JSON config from a path or literal text; validates everything."""
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError("<path>", str(exc)) from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<json>", str(exc)) from None
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be an object")
    dim = raw.get("dim")
    if not _is_int(dim) or dim < 1:
        raise ConfigError("dim", "must be a positive integer")
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
    window = suite_raw.get("window", [-6, 2])
    if (
        not isinstance(window, list)
        or len(window) != 2
        or not all(_is_int(x) for x in window)
        or window[0] > window[1]
    ):
        raise ConfigError("suite.window", "must be [lo, hi] integers with lo <= hi")
    checks = suite_raw.get("checks")
    if checks is not None:
        valid = f"valid names: {', '.join(CHECKS)}"
        if not isinstance(checks, list):
            raise ConfigError("suite.checks", f"expected a list, got {checks!r}; {valid}")
        for name in checks:
            if not isinstance(name, str) or name not in CHECKS:
                raise ConfigError("suite.checks", f"unknown check {name!r}; {valid}")
    suite = SuiteConfig(
        h=h,
        module=module,
        max_weight=_int_at(suite_raw, "max_weight", 3, 1, MAX_SUITE_WEIGHT),
        dual_weight_cap=_int_at(suite_raw, "dual_weight_cap", 6, 0),
        window=(window[0], window[1]),
        seed=_int_at(suite_raw, "seed", 0, None),
        pbw_words=_int_at(suite_raw, "pbw_words", 300, 0),
        sample_pairs=_int_at(suite_raw, "sample_pairs", 25, 0),
        checks=tuple(checks) if checks is not None else None,
    )
    return Config(h=h, module=module, suite=suite)


DEFAULT_CONFIG = '{"dim": 2}'


# -- rendering helpers --------------------------------------------------------------


def render_state(welem, mod: ModulePresentation) -> str:
    return render_signed_sum(
        (welem[(word, s)], render_word(word) + (f"@{s + 1}" if mod.dim > 1 else ""))
        for (word, s) in sorted(welem, key=lambda k: (word_sort_key(k[0]), k[1]))
    )


def state_to_json(welem, mod: ModulePresentation):
    return [
        {
            "word": [[i + 1, m] for i, m in word],
            "index": s,
            "coeff": format_rational(welem[(word, s)]),
        }
        for (word, s) in sorted(welem, key=lambda k: (word_sort_key(k[0]), k[1]))
    ]


def _parse_state_arg(text: Optional[str], config: Config):
    elem = parse_elem(text, config.h.dim) if text else {(): Fraction(1)}
    return free_to_state(elem)


# -- commands ------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, need_config=True):
    p.add_argument("-c", "--config", default=None, help="JSON config path or literal")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mosva",
        description="Exact vertex-operator computations on the free boson tensor algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the verification suite")
    _add_common(p)

    p = sub.add_parser("product", help="matrix coefficient of a product of operators")
    _add_common(p)
    p.add_argument("-u", action="append", required=True, help="operator element, outermost first")
    p.add_argument("--dual", default=None, help="dual-basis combination")
    p.add_argument("--state", default=None, help="starting state")

    p = sub.add_parser("iterate", help="matrix coefficient of an iterate of two operators")
    _add_common(p)
    p.add_argument("-u", action="append", required=True)
    p.add_argument("--dual", default=None)
    p.add_argument("--state", default=None)

    p = sub.add_parser("series", help="coefficients of one vertex operator series")
    _add_common(p)
    p.add_argument("-u", action="append", required=True)
    p.add_argument("--state", default=None)
    p.add_argument("--window", action="append", default=None, help="lo:hi exponent range")

    p = sub.add_parser("normalform", help="block normal form of a generator word")
    _add_common(p)
    p.add_argument("expr", help="generator word, e.g. 'a1(1)a1(-1)'")

    p = sub.add_parser("quotient", help="projection onto the symmetric algebra")
    _add_common(p)
    p.add_argument("-u", action="append", required=True)

    return parser


def _load_config(args) -> Config:
    config = parse_config(args.config if args.config else DEFAULT_CONFIG)
    if getattr(args, "seed", None) is not None:
        config = replace(config, suite=replace(config.suite, seed=args.seed))
    return config


def _emit(args, text_value: str, json_value) -> None:
    if args.format == "json":
        print(json.dumps(json_value, indent=2, sort_keys=True))
    else:
        print(text_value)


def cmd_check(args) -> int:
    config = _load_config(args)
    reports = run_suite(config.suite)
    if args.format == "json":
        payload = [
            {
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "params": {k: str(v) for k, v in r.params.items()},
            }
            for r in reports
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in reports:
            print(r.line())
        passed = sum(1 for r in reports if r.passed)
        print(f"{passed}/{len(reports)} checks passed")
    return 0 if all(r.passed for r in reports) else 1


def cmd_product(args) -> int:
    config = _load_config(args)
    us = [parse_elem(text, config.h.dim) for text in args.u]
    f = _parse_state_arg(args.dual, config)
    w = _parse_state_arg(args.state, config)
    rf = matrix_coeff_product(config.h, config.module, us, f, w)
    _emit(args, rf.render(), rf.to_json())
    return 0


def cmd_iterate(args) -> int:
    config = _load_config(args)
    if len(args.u) != 2:
        print("iterate needs exactly two -u elements", file=sys.stderr)
        return 2
    u1, u2 = (parse_elem(text, config.h.dim) for text in args.u)
    f = _parse_state_arg(args.dual, config)
    w = _parse_state_arg(args.state, config)
    rf = matrix_coeff_iterate(config.h, config.module, u1, u2, f, w)
    _emit(args, rf.render(), rf.to_json())
    return 0


def cmd_series(args) -> int:
    config = _load_config(args)
    if len(args.u) != 1:
        print("series takes exactly one -u element", file=sys.stderr)
        return 2
    u = parse_elem(args.u[0], config.h.dim)
    w = _parse_state_arg(args.state, config)
    if args.window:
        try:
            lo, hi = (int(x) for x in args.window[0].split(":"))
        except ValueError:
            print("--window must be lo:hi", file=sys.stderr)
            return 2
    else:
        lo, hi = config.suite.window
    series = vertex_series(config.h, config.module, u, w, lo, hi)
    bound = series_lower_bound(config.h, config.module, u, w)
    lines = [f"x^{e}: {render_state(series[e], config.module)}" for e in sorted(series)]
    lines.append(f"(coefficients vanish below exponent {bound})")
    payload = {
        "coefficients": {str(e): state_to_json(series[e], config.module) for e in sorted(series)},
        "lower_bound": bound,
    }
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_normalform(args) -> int:
    config = _load_config(args)
    gens = parse_hat_word(args.expr, config.h.dim)
    out = pbw_normal_form(gens, config.h)
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


def cmd_quotient(args) -> int:
    config = _load_config(args)
    combined: Dict = {}
    for text in args.u:
        add_terms(combined, parse_elem(text, config.h.dim).items())
    projected = project_to_sym(combined)
    text = render_free_elem(projected)
    payload = [
        {"word": [[i + 1, m] for i, m in word], "coeff": format_rational(c)}
        for word, c in sorted(projected.items(), key=lambda kv: word_sort_key(kv[0]))
    ]
    _emit(args, text, payload)
    return 0


COMMANDS = {
    "check": cmd_check,
    "product": cmd_product,
    "iterate": cmd_iterate,
    "series": cmd_series,
    "normalform": cmd_normalform,
    "quotient": cmd_quotient,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, ElemParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
