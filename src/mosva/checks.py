"""Executable verification of the algebra and module axioms at desk scale.

Every axiom of the construction has a finite, exact check here: vacuum
properties, the grading bracket, the translation-operator identities,
rationality of products and iterates against the closed-form engine (whose
RatFun admits no pole off the locus), associativity of products versus
iterates, block rewriting confluence, graded dimensions, the projection onto
the symmetric algebra, and an explicit noncommutativity witness.  Checks draw their samples
from an exhaustive low-weight grid plus a seeded random layer, one stream per
sampling check, so reports are reproducible from the configuration alone.
Each verify_* returns its first failure's detail, None when the property
holds; a sweep's failure leads with its sample in the syntax of the CLI's
-u, --state and --dual.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import prod
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .halgebra import (
    CENTRAL,
    FreeElem,
    HSpace,
    NegWord,
    add_into,
    add_terms,
    basis_words,
    basis_words_up_to,
    derivative_elem,
    graded_dimension,
    mode,
    pbw_normal_form,
    render_free_elem,
    render_word,
    vacuum_elem,
    weight,
    word_elem,
    word_weight,
)
from .fields import (
    field_coefficient,
    iterate_series_bruteforce,
    product_series_bruteforce,
    product_series_states,
    vertex_series,
)
from .modules import (
    DualFunctional,
    ModulePresentation,
    WElem,
    apply_D,
    apply_d,
    apply_mode,
    dual_term,
    free_to_state,
    key_weight,
    render_pairs,
    state,
    state_to_free,
    vacuum_state,
    validate_module,
    welem_add,
    welem_scale,
)
from .ratfun import (
    RatFun,
    expand_in_region,
    expand_iterate,
    parts_eq,
    ratfun_sum,
    uniform_window,
)
from .wick import (
    iterate_table_raw,
    matrix_coeff_iterate,
    matrix_coeff_product,
    product_table_raw,
)

@dataclass
class CheckReport:
    """Outcome of one named check; reproducible from config and seed.  Built
    by run_suite alone, from the (params, passed, detail) its check returns."""

    name: str
    params: Dict[str, object]
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail and not self.passed else ""
        return f"{status}  {self.name}{extra}"


# the oracle's mode enumeration grows steeply with the sampled words' weight:
# on dim 2 the default suite peaks at 236 MB with max_weight 5 and runs out of
# a 2 GB address space with max_weight 6
MAX_SUITE_WEIGHT = 5
# a config's dim x dim form is built before anything else is checked; a dim
# of 1,200 alone takes 2.7 s and 93 MB
MAX_DIM = 100


class ConfigError(ValueError):
    """A configuration value out of its domain; `path` names the field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# (lowest, highest) value of each integer field, None where unbounded; a
# count of 0 would let its checks pass without checking anything
_INT_BOUNDS = {
    "max_weight": (1, MAX_SUITE_WEIGHT),
    # associativity alone, dim 2, 2-core host: 2.2 s at 12, doubling every 2 above
    "dual_weight_cap": (0, 12),
    "seed": (None, None),
    "pbw_words": (1, None),
    "sample_pairs": (1, None),
}
# the lowest lo and highest hi of the window: the suite's cost grows at both
# ends, at the low one only through the series that reach it.  The dim-2
# default suite, one run each on a 2-core shared host: [-6, 2] 0.33 s,
# [-6, 16] 2.0 s, [-1000, 2] 0.35 s, [-1000, 16] 4.9 s, against [-6, 24]
# 6.1 s and [-5000, 2] 0.30 s; [-6, 48] took 54 s when last measured
WINDOW_BOUNDS = (-1000, 16)


@dataclass(frozen=True)
class SuiteConfig:
    """Everything a suite run reads; raises ConfigError naming a bad field."""

    h: HSpace
    module: ModulePresentation
    max_weight: int = 3
    dual_weight_cap: int = 6
    window: Tuple[int, int] = (-6, 2)
    seed: int = 0
    pbw_words: int = 300
    sample_pairs: int = 25
    checks: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        if len(self.module.action) != self.h.dim:
            raise ConfigError("module", f"needs {self.h.dim} action matrices, got {len(self.module.action)}")
        for name, (lo, hi) in _INT_BOUNDS.items():
            value = getattr(self, name)
            if not _is_int(value) or (lo is not None and value < lo) or (hi is not None and value > hi):
                bound = "an integer" if lo is None else f"an integer >= {lo}"
                if hi is not None:
                    bound += f" and <= {hi}"
                raise ConfigError(name, f"must be {bound}, got {value!r}")
        window = self.window
        if (
            not isinstance(window, (list, tuple))
            or len(window) != 2
            or not all(_is_int(x) for x in window)
            or not WINDOW_BOUNDS[0] <= window[0] <= window[1] <= WINDOW_BOUNDS[1]
        ):
            lo, hi = WINDOW_BOUNDS
            raise ConfigError(
                "window", f"must be [lo, hi] integers with {lo} <= lo <= hi <= {hi}, got {window!r}"
            )
        object.__setattr__(self, "window", tuple(window))
        if self.checks is not None:
            valid = f"valid names: {', '.join(CHECKS)}"
            if not isinstance(self.checks, (list, tuple)):
                raise ConfigError("checks", f"expected a list, got {self.checks!r}; {valid}")
            for name in self.checks:
                if not isinstance(name, str) or name not in CHECKS:
                    raise ConfigError("checks", f"unknown check {name!r}; {valid}")
            object.__setattr__(self, "checks", tuple(self.checks))


# -- vacuum properties ----------------------------------------------------------


def _first_mismatch(
    lhs: Dict[int, WElem], rhs: Dict[int, WElem], span: Tuple[int, int]
) -> Optional[int]:
    """The lowest exponent in span where two series differ, None if none."""
    return next(
        (e for e in range(span[0], span[1] + 1) if lhs.get(e, {}) != rhs.get(e, {})), None
    )


def verify_identity_creation(
    h: HSpace, mod: ModulePresentation, samples: Sequence[FreeElem], span: Tuple[int, int]
) -> Optional[str]:
    """Identity property on the module, creation property on the algebra."""
    triv = ModulePresentation.trivial(h.dim)
    for s in range(min(mod.dim, 3)):
        w = vacuum_state(s)
        e = _first_mismatch(vertex_series(h, mod, vacuum_elem(), w, *span), {0: w}, span)
        if e is not None:
            return f"identity fails at exponent {e} on basis state {s}"
    # Y(u, x)1 has no negative powers and u as its constant term
    creation = (min(span[0], 0), 0)
    for u in samples:
        series = vertex_series(h, triv, u, vacuum_state(), *creation)
        e = _first_mismatch(series, {0: free_to_state(u)}, creation)
        if e is not None:
            return f"creation fails at exponent {e} for {render_free_elem(u)}"
    return None


# -- grading and translation identities --------------------------------------------


def verify_d_bracket(
    h: HSpace,
    mod: ModulePresentation,
    u: FreeElem,
    w: WElem,
    span: Tuple[int, int],
) -> Optional[str]:
    """[grading, Y(u, x)] = Y(grading u, x) + x d/dx Y(u, x), coefficientwise."""
    wt_u = weight(u)
    if wt_u is None:
        return "u is inhomogeneous"
    on_w = vertex_series(h, mod, u, w, *span)
    on_dw = vertex_series(h, mod, u, apply_d(mod, w), *span)
    # both sides vanish where neither series has a coefficient
    for e in sorted(on_w.keys() | on_dw.keys()):
        uw = on_w.get(e, {})
        lhs = welem_add(apply_d(mod, uw), welem_scale(on_dw.get(e, {}), -1))
        if lhs != welem_scale(uw, wt_u + e):
            return f"mismatch at exponent {e}"
    return None


def verify_D_properties(
    h: HSpace,
    mod: ModulePresentation,
    u: FreeElem,
    w: WElem,
    span: Tuple[int, int],
) -> Optional[str]:
    """The derivative, translation, and commutator forms of d/dx Y(u, x) agree.

    The commutator form provably fails on modules whose zero modes act by
    nonzero matrices: the d/dx of the zero-mode term has no commutator
    counterpart.
    """
    lo, hi = span
    on_w = vertex_series(h, mod, u, w, lo, hi + 1)
    translated = vertex_series(h, mod, derivative_elem(u), w, lo, hi)
    on_Dw = vertex_series(h, mod, u, apply_D(mod, w), lo, hi)
    # every form vanishes where no series has a coefficient
    held = on_w.keys() | {e - 1 for e in on_w} | translated.keys() | on_Dw.keys()
    for e in sorted(e for e in held if lo <= e <= hi):
        derivative = welem_scale(on_w.get(e + 1, {}), e + 1)
        if derivative != translated.get(e, {}):
            return f"derivative vs translation at exponent {e}"
        commutator = welem_add(
            apply_D(mod, on_w.get(e, {})), welem_scale(on_Dw.get(e, {}), -1)
        )
        if derivative != commutator:
            return f"commutator form differs at exponent {e}"
    return None


def verify_mode_commutators(h: HSpace, w: WElem) -> Optional[str]:
    """[D, a(-m)] = m a(-m-1) and [D, a(m)] = -m a(m-1) on w's first words.

    Statements about the algebra itself, where zero modes act as zero, so
    they are pinned on the trivial-module realization; they read no u.
    """
    triv = ModulePresentation.trivial(h.dim)
    for (word, _s) in list(w)[:4]:
        wv = {(word, 0): 1}
        for i in range(h.dim):
            for m in range(1, 4):
                for n in (-m, m):
                    lhs = welem_add(
                        apply_D(triv, apply_mode(h, triv, i, n, wv)),
                        welem_scale(apply_mode(h, triv, i, n, apply_D(triv, wv)), -1),
                    )
                    rhs = welem_scale(apply_mode(h, triv, i, n - 1, wv), -n)
                    if lhs != rhs:
                        return f"mode commutator fails at a{i + 1}({n})"
    return None


# -- rationality and associativity ---------------------------------------------------


def verify_rationality_product(
    h: HSpace,
    mod: ModulePresentation,
    us: Sequence[FreeElem],
    f: DualFunctional,
    w: WElem,
    window: Tuple[int, int],
) -> Optional[str]:
    """The closed-form rational function expands to the actual series."""
    rf = matrix_coeff_product(h, mod, us, f, w)
    names = tuple(f"z{j + 1}" for j in range(len(us)))
    win = uniform_window(names, *window)
    series = product_series_bruteforce(h, mod, us, w, f, win)
    if expand_in_region(rf, names, win) != series.align(names):
        return rf.render()
    return None


def verify_rationality_iterate(
    h: HSpace,
    mod: ModulePresentation,
    u1: FreeElem,
    u2: FreeElem,
    f: DualFunctional,
    w: WElem,
    window: Tuple[int, int],
) -> Optional[str]:
    """The iterate's rational function expands to the iterate series."""
    rf = matrix_coeff_iterate(h, mod, u1, u2, f, w)
    win = uniform_window(("x0", "x2"), *window)
    series = iterate_series_bruteforce(h, mod, u1, u2, f, w, win)
    if expand_iterate(rf.numer, rf.poles, win) != series.align(("x0", "x2")):
        return rf.render()
    return None


# -- symmetric-algebra projection ----------------------------------------------------

SymWord = Tuple[Tuple[int, int], ...]  # (i, m) pairs sorted by (m, i)


def sym_word(word: NegWord) -> SymWord:
    return tuple(sorted(word, key=itemgetter(1, 0)))


def project_to_sym(u: FreeElem) -> Dict[SymWord, Fraction]:
    """Canonical projection onto the symmetric algebra: sort and merge."""
    out: Dict[SymWord, Fraction] = {}
    for word, c in u.items():
        add_into(out, sym_word(word), c)
    return out


def _word_permutations(word: NegWord) -> List[NegWord]:
    return sorted(set(permutations(word)))


def verify_quotient_homomorphism(
    h: HSpace, u: NegWord, v: NegWord, span: Tuple[int, int]
) -> Optional[str]:
    """Projected products depend only on the projected inputs.

    Runs over every reordering of the factors of u and of v, comparing the
    projected series coefficients in the window; a pair with one ordering
    each compares nothing, so its series is not computed.
    """
    us, vs = _word_permutations(u), _word_permutations(v)
    if len(us) * len(vs) == 1:
        return None
    triv = ModulePresentation.trivial(h.dim)
    reference: Optional[Dict[int, Dict[SymWord, Fraction]]] = None
    for u2 in us:
        for v2 in vs:
            series = vertex_series(
                h, triv, word_elem(u2), free_to_state(word_elem(v2)), span[0], span[1]
            )
            projected = {e: project_to_sym(state_to_free(el)) for e, el in series.items()}
            projected = {e: p for e, p in projected.items() if p}
            if reference is None:
                reference = projected
            elif projected != reference:
                return f"projection differs for {render_word(u2)} / {render_word(v2)}"
    return None


# -- independent symmetric-side evaluation -------------------------------------------


def sym_apply_mode(h: HSpace, i: int, n: int, w: Dict[SymWord, Fraction]) -> Dict[SymWord, Fraction]:
    """Mode action on the symmetric algebra: insert, derive, or vanish."""
    out: Dict[SymWord, Fraction] = {}
    for word, c in w.items():
        if n < 0:
            add_into(out, sym_word(word + ((i, -n),)), c)
        elif n == 0:
            continue
        else:
            for p, (j, m) in enumerate(word):
                if m == n:
                    val = c * n * h.pairing(i, j)
                    if val:
                        add_into(out, word[:p] + word[p + 1:], val)
    return out


def sym_vertex_coefficient(
    h: HSpace, u_sym: SymWord, s: int, w: Dict[SymWord, Fraction]
) -> Dict[SymWord, Fraction]:
    """Vertex-operator coefficient computed purely on sorted words.

    Independent of the tensor-side machinery: the only shared ingredient is
    the per-field binomial.  The mode tuples are those free of zero modes,
    with total s + 1 - sum of the orders and positive part at most the
    word's weight, so every mode lies in [total - weight, weight].
    """
    orders = tuple(m for _, m in u_sym)
    indices = [i for i, _ in u_sym]
    total = s + 1 - sum(orders)
    out: Dict[SymWord, Fraction] = {}
    for word, wc in w.items():
        budget = word_weight(word)
        for modes in product(range(total - budget, budget + 1), repeat=len(orders)):
            if sum(modes) != total or 0 in modes or sum(n for n in modes if n > 0) > budget:
                continue
            c = prod(field_coefficient(m, n) for m, n in zip(orders, modes))
            current = {word: wc * c}
            for i, n in sorted(zip(indices, modes), key=lambda x: -x[1]):
                current = sym_apply_mode(h, i, n, current)
                if not current:
                    break
            add_terms(out, current.items())
    return out


# -- noncommutativity ------------------------------------------------------------------


@dataclass
class Witness:
    u1: FreeElem
    u2: FreeElem
    f: DualFunctional
    w: WElem
    direct: RatFun
    swapped: RatFun

    def describe(self) -> str:
        return (
            f"u1={render_free_elem(self.u1)} u2={render_free_elem(self.u2)} "
            f"dual={render_pairs(self.f)}: "
            f"{self.direct.render()} vs {self.swapped.render()}"
        )


def noncommutativity_witness(
    h: HSpace, mod: ModulePresentation, max_weight: int = 2
) -> Optional[Witness]:
    """Search for a pair of elements whose two product orders differ.

    Deterministic sweep over basis words by weight, vacuum state, dual basis
    words up to the combined weight; zero-mode routes are covered because the
    products run against the configured module.  By creation modes alone,
    one order of a1(-1)1 and a2(-1)1 (of a1(-1)1 and a1(-2)1 on dim 1) puts
    a word the other cannot reach, so max_weight 2 always finds a witness.
    """
    words = [wd for wd in basis_words_up_to(h.dim, max_weight) if wd]
    for w1 in words:
        for w2 in words:
            u1, u2 = word_elem(w1), word_elem(w2)
            w = vacuum_state()
            cap = word_weight(w1) + word_weight(w2)
            direct = product_table_raw(h, mod, [u1, u2], w, cap)
            swapped = product_table_raw(h, mod, [u2, u1], w, cap)
            for key in sorted(set(direct) | set(swapped)):
                lhs, rhs = direct.get(key, []), swapped.get(key, [])
                if not parts_eq(lhs, rhs):
                    return Witness(
                        u1, u2, {key: 1}, w, ratfun_sum(lhs), ratfun_sum(rhs)
                    )
    return None


# -- structural checks -----------------------------------------------------------------


def verify_pbw_confluence(h: HSpace, count: int, seed: int) -> Optional[str]:
    """Seeded random words of up to 6 generators rewrite the same under both strategies."""
    rng = random.Random(seed)
    for trial in range(count):
        gens = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.1:
                gens.append(CENTRAL)
            else:
                gens.append(mode(rng.randrange(h.dim), rng.randint(-3, 3)))
        left = pbw_normal_form(gens, h, "leftmost")
        right = pbw_normal_form(gens, h, "rightmost")
        if left != right:
            return f"strategies differ on trial {trial}"
    return None


def verify_graded_dimensions(h: HSpace, up_to: int) -> Optional[str]:
    for n in range(up_to + 1):
        if graded_dimension(h, n) != len(basis_words(h.dim, n)):
            return f"mismatch at weight {n}"
    return None


def verify_lower_bound(
    h: HSpace, mod: ModulePresentation, samples: Sequence[WElem]
) -> Optional[str]:
    """No operation output dips below the module's minimum weight."""
    floor_w = mod.min_weight
    for w in samples:
        for i in range(h.dim):
            for n in (-2, -1, 0, 1, 2):
                for key in apply_mode(h, mod, i, n, w):
                    if key_weight(mod, key) < floor_w:
                        return f"weight {key_weight(mod, key)} below floor {floor_w}"
    return None


def verify_sym_crosscheck(h: HSpace, max_weight: int, span: Tuple[int, int]) -> Optional[str]:
    """Projected tensor-side coefficients match the symmetric-side evaluation."""
    triv = ModulePresentation.trivial(h.dim)
    checked = 0
    for uword in basis_words_up_to(h.dim, max_weight):
        for vword in basis_words_up_to(h.dim, max_weight - 1):
            series = vertex_series(
                h, triv, word_elem(uword), free_to_state(word_elem(vword)), *span
            )
            for e in range(span[0], span[1] + 1):
                tensor_side = project_to_sym(state_to_free(series.get(e, {})))
                sym_side = sym_vertex_coefficient(
                    h, sym_word(uword), -e - 1, {sym_word(vword): 1}
                )
                sym_side = {k: c for k, c in sym_side.items() if c}
                if tensor_side != sym_side:
                    return f"{render_word(uword)} on {render_word(vword)} at x^{e}"
                if tensor_side:
                    checked += 1
    return f"only {checked} nonzero coefficients" if checked < 20 else None


# -- the suite ---------------------------------------------------------------------------


@dataclass
class _Samples:
    """The exhaustive-plus-seeded sample grid every check draws from."""

    config: SuiteConfig
    words: List[NegWord]
    elems: List[FreeElem]
    states: List[WElem]
    pairs: List[Tuple[NegWord, NegWord]]

    @classmethod
    def draw(cls, config: SuiteConfig) -> "_Samples":
        h, mod = config.h, config.module
        rng = random.Random(config.seed)
        words = basis_words_up_to(h.dim, min(config.max_weight, 3))
        if config.max_weight > 3:
            pool = basis_words(h.dim, config.max_weight)
            words += [rng.choice(pool) for _ in range(8)]
        states: List[WElem] = [vacuum_state()]
        states += [state(wd) for wd in words[1:6]]
        states += [vacuum_state(s) for s in range(1, min(mod.dim, 3))]
        nonvac = [wd for wd in words if wd]
        pairs = [(rng.choice(nonvac), rng.choice(nonvac)) for _ in range(config.sample_pairs)]
        return cls(config, words, [word_elem(wd) for wd in words], states, pairs)


# a check's outcome: its params, whether it passed, and its detail
Outcome = Tuple[Dict[str, object], bool, str]


def _held(params: Dict[str, object], failure: Optional[str]) -> Outcome:
    """The outcome of a check whose first failure is `failure`, None if it held."""
    return params, failure is None, failure or ""


def _series(
    s: _Samples, states: int, verify: Callable[..., Optional[str]], per_state: Optional[Callable] = None
) -> Outcome:
    """verify(h, mod, u, w, window) over each sampled element and the first
    `states` sampled states, and per_state(h, w) once per state, after its
    first verify; a failure leads with its u and w."""
    c = s.config
    params = {"samples": len(s.elems), "window": c.window}
    for n, u in enumerate(s.elems):
        for w in s.states[:states]:
            failure = verify(c.h, c.module, u, w, c.window)
            if failure is None and per_state is not None and n == 0:
                failure = per_state(c.h, w)
            if failure is not None:
                return params, False, f"u={render_free_elem(u)} w={render_pairs(w)}: {failure}"
    return params, True, ""


def _reached_sample(s: _Samples, rng: random.Random, u1: FreeElem, u2: FreeElem):
    """A state, and the dual of a basis pair up to the weight cap that the oracle's
    product of u1 and u2 reaches on it in the window, preferring the sampled
    words; with no such pair, a dual of the sampled words."""
    c, w = s.config, rng.choice(s.states)
    window = uniform_window(("z1", "z2"), *c.window)
    states = product_series_states(
        c.h, c.module, [u1, u2], w, (c.module.min_weight, c.dual_weight_cap), window
    )
    keys = sorted({key for elem in states.values() for key in elem})
    keys = [key for key in keys if key[0] in s.words] or keys
    if keys:
        return dual_term(*rng.choice(keys)), w
    return dual_term(rng.choice(s.words), rng.randrange(c.module.dim)), w


def _rationality(s: _Samples, name: str, count: int, verify: Callable[..., Optional[str]]) -> Outcome:
    """verify(h, mod, u1, u2, f, w, window) over the first `count` sampled
    pairs, each on a reached state and dual; a failure leads with all four."""
    # its own stream, so its samples do not depend on which checks ran before it
    c, rng = s.config, random.Random(f"{s.config.seed}:{name}")
    pairs = s.pairs[:count]
    params = {"pairs": len(pairs), "window": c.window}
    for w1, w2 in pairs:
        u1, u2 = word_elem(w1), word_elem(w2)
        f, w = _reached_sample(s, rng, u1, u2)
        failure = verify(c.h, c.module, u1, u2, f, w, c.window)
        if failure is not None:
            sample = f"u1={render_word(w1)} u2={render_word(w2)} w={render_pairs(w)} dual={render_pairs(f)}"
            return params, False, f"{sample}: {failure}"
    return params, True, ""


def _associativity(s: _Samples) -> Outcome:
    c = s.config
    checked = 0
    for w1, w2 in s.pairs:
        u1, u2 = word_elem(w1), word_elem(w2)
        for w in s.states[:3]:
            prod = product_table_raw(c.h, c.module, [u1, u2], w, c.dual_weight_cap)
            it = iterate_table_raw(c.h, c.module, u1, u2, w, c.dual_weight_cap)
            for key in set(prod) | set(it):
                checked += 1
                if not parts_eq(prod.get(key, []), it.get(key, [])):
                    sample = f"u1={render_word(w1)} u2={render_word(w2)} w={render_pairs(w)}"
                    detail = f"{sample}: differs against dual {render_pairs({key: 1})}"
                    return {"pairs": len(s.pairs), "coefficients": checked}, False, detail
    return {"pairs": len(s.pairs), "coefficients": checked}, True, ""


def _quotient_homomorphism(s: _Samples) -> Outcome:
    # one call per permutation class: each call runs over every reordering
    h = s.config.h
    failures = (
        verify_quotient_homomorphism(h, uword, vword, (-4, 3))
        for uword in basis_words_up_to(h.dim, 3) if uword == sym_word(uword)
        for vword in basis_words_up_to(h.dim, 2) if vword == sym_word(vword)
    )
    return _held({"max_weight": 3}, next(filter(None, failures), None))


def _noncommutativity_witness(s: _Samples) -> Outcome:
    witness = noncommutativity_witness(s.config.h, s.config.module, max_weight=2)
    detail = witness.describe() if witness else "no witness in the sampled range"
    return {"max_weight": 2}, witness is not None, detail


def _graded_dimensions(s: _Samples) -> Outcome:
    up_to = min(s.config.max_weight + 3, 8)
    return _held({"up_to": up_to}, verify_graded_dimensions(s.config.h, up_to))


# every check by name, in report order; module-invariants always runs
CHECKS: Dict[str, Callable[[_Samples], Outcome]] = {
    "module-invariants": lambda s: _held(
        {"dim": s.config.module.dim}, "; ".join(validate_module(s.config.module)) or None
    ),
    "identity-creation": lambda s: _held(
        {"samples": len(s.elems), "span": s.config.window},
        verify_identity_creation(s.config.h, s.config.module, s.elems, s.config.window),
    ),
    "grading-bracket": lambda s: _series(s, 4, verify_d_bracket),
    "translation-properties": lambda s: _series(s, 3, verify_D_properties, verify_mode_commutators),
    "rationality-product": lambda s: _rationality(
        s, "rationality-product", max(6, s.config.sample_pairs // 3),
        lambda h, mod, u1, u2, *rest: verify_rationality_product(h, mod, [u1, u2], *rest),
    ),
    "associativity": _associativity,
    "rationality-iterate": lambda s: _rationality(
        s, "rationality-iterate", max(4, s.config.sample_pairs // 4), verify_rationality_iterate
    ),
    "pbw-confluence": lambda s: _held(
        {"count": s.config.pbw_words, "max_len": 6, "seed": s.config.seed},
        verify_pbw_confluence(s.config.h, s.config.pbw_words, s.config.seed),
    ),
    "graded-dimensions": _graded_dimensions,
    "lower-bound": lambda s: _held(
        {"samples": len(s.states)}, verify_lower_bound(s.config.h, s.config.module, s.states)
    ),
    "quotient-homomorphism": _quotient_homomorphism,
    "sym-crosscheck": lambda s: _held(
        {"max_weight": 2, "span": (-3, 3)}, verify_sym_crosscheck(s.config.h, 2, (-3, 3))
    ),
    "noncommutativity-witness": _noncommutativity_witness,
}


def run_suite(config: SuiteConfig) -> List[CheckReport]:
    """Run every configured check over an exhaustive-plus-seeded sample grid."""
    samples = _Samples.draw(config)
    wanted = CHECKS if config.checks is None else {"module-invariants", *config.checks}
    return [CheckReport(name, *check(samples)) for name, check in CHECKS.items() if name in wanted]
