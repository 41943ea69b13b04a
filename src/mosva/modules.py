"""Matrix-presented zero-mode modules and the induced creation-word module.

A module presentation is a finite list of basis weights, one square rational
matrix per base-space direction giving the zero-mode action, and one matrix
for the weight-one operator that the translation operator restricts to.  The
zero-mode matrices are unconstrained relative to each other (the zero modes
generate a free algebra); validation only checks the grading and the
commutation of the weight-one operator with them.

Elements of the induced module are sparse rational combinations of pairs
(creation word, module basis index).  Mode application keeps everything in
that reduced shape: negative modes prepend a factor, zero modes act through
their matrix on the module leg, and positive modes walk rightward through the
word, paying the contraction scalar n*(a_i, a_j) whenever the orders match and
annihilating the module leg at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .halgebra import FreeElem, HSpace, NegWord, add_into, add_terms, derivative_elem, word_weight

Matrix = Tuple[Tuple[Fraction, ...], ...]
WKey = Tuple[NegWord, int]
WElem = Dict[WKey, Fraction]
DualFunctional = Dict[WKey, Fraction]

_ONE = Fraction(1)


def _matrix(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def zero_matrix(r: int) -> Matrix:
    return tuple(tuple(Fraction(0) for _ in range(r)) for _ in range(r))


@dataclass(frozen=True)
class ModulePresentation:
    """A graded module over the zero modes with a compatible weight-one operator."""

    dim: int
    weights: Tuple[Fraction, ...]
    action: Tuple[Matrix, ...]  # one dim x dim matrix per base-space direction
    dm: Matrix

    @classmethod
    def build(cls, weights, action, dm) -> "ModulePresentation":
        return cls(
            dim=len(weights),
            weights=tuple(Fraction(w) for w in weights),
            action=tuple(_matrix(m) for m in action),
            dm=_matrix(dm),
        )

    @classmethod
    def trivial(cls, hdim: int) -> "ModulePresentation":
        """The one-dimensional weight-0 module with all zero-mode matrices 0."""
        zero = zero_matrix(1)
        return cls(1, (Fraction(0),), tuple(zero for _ in range(hdim)), zero)

    @property
    def min_weight(self) -> Fraction:
        return min(self.weights)

    def has_zero_mode_action(self) -> bool:
        return any(any(any(row) for row in m) for m in self.action)


def validate_module(mod: ModulePresentation) -> List[str]:
    """Exact invariant check; each violated entry is reported by name."""
    problems = []
    r = mod.dim
    if len(mod.weights) != r:
        problems.append("weights length differs from dim")
        return problems
    for idx, m in enumerate(mod.action):
        if len(m) != r or any(len(row) != r for row in m):
            problems.append(f"action[{idx}] is not {r}x{r}")
            continue
        for s in range(r):
            for t in range(r):
                if m[s][t] and mod.weights[s] != mod.weights[t]:
                    problems.append(
                        f"action[{idx}][{s}][{t}] does not preserve the grading"
                    )
    if len(mod.dm) != r or any(len(row) != r for row in mod.dm):
        problems.append(f"Dm is not {r}x{r}")
        return problems
    for s in range(r):
        for t in range(r):
            if mod.dm[s][t] and mod.weights[s] != mod.weights[t] + 1:
                problems.append(f"Dm[{s}][{t}] is not of weight 1")
    for idx, m in enumerate(mod.action):
        if len(m) != r or any(len(row) != r for row in m):
            continue
        for s in range(r):
            for t in range(r):
                lhs = sum(mod.dm[s][u] * m[u][t] for u in range(r))
                rhs = sum(m[s][u] * mod.dm[u][t] for u in range(r))
                if lhs != rhs:
                    problems.append(f"Dm does not commute with action[{idx}] at [{s}][{t}]")
    return problems


# -- module elements -----------------------------------------------------------


def state(word: NegWord = (), index: int = 0, coeff=1) -> WElem:
    c = Fraction(coeff)
    return {(tuple(word), index): c} if c else {}


def vacuum_state(index: int = 0) -> WElem:
    return state((), index)


def welem_add(u: WElem, v: WElem) -> WElem:
    out = dict(u)
    add_terms(out, v.items())
    return out


def welem_scale(u: WElem, c) -> WElem:
    c = Fraction(c)
    if not c:
        return {}
    return {k: c * x for k, x in u.items()}


def free_to_state(u: FreeElem, index: int = 0) -> WElem:
    return {(w, index): c for w, c in u.items()}


def state_to_free(w: WElem) -> FreeElem:
    """Inverse of free_to_state for one-dimensional modules."""
    out: FreeElem = {}
    for (word, s), c in w.items():
        if s != 0:
            raise ValueError("state does not live over a one-dimensional module")
        out[word] = c
    return out


def key_weight(mod: ModulePresentation, key: WKey) -> Fraction:
    base = mod.weights[key[1]]
    if not base:
        return word_weight(key[0])
    return word_weight(key[0]) + base


def apply_mode_term(
    h: HSpace, mod: ModulePresentation, i: int, n: int, word: NegWord, index: int
) -> List[Tuple[NegWord, int, Fraction]]:
    """a_i(n) applied to a single basis pair; list of (word, index, coeff)."""
    if not 0 <= i < h.dim:
        raise IndexError(f"basis index {i} out of range for dim {h.dim}")
    if n < 0:
        return [(((i, -n),) + word, index, _ONE)]
    if n == 0:
        column = mod.action[i]
        return [
            (word, t, column[t][index]) for t in range(mod.dim) if column[t][index]
        ]
    out = []
    for p, (j, m) in enumerate(word):
        if m == n:
            pair = h.pairing(i, j)
            if pair:
                c = n if pair == 1 else n * pair
                out.append((word[:p] + word[p + 1:], index, c))
    return out


def apply_mode(h: HSpace, mod: ModulePresentation, i: int, n: int, w: WElem) -> WElem:
    out: WElem = {}
    for (word, s), c in w.items():
        for word2, s2, c2 in apply_mode_term(h, mod, i, n, word, s):
            add_into(out, (word2, s2), c * c2)
    return out


def apply_d(mod: ModulePresentation, w: WElem) -> WElem:
    """Grading operator: scales each basis pair by its weight."""
    out: WElem = {}
    for key, c in w.items():
        scaled = c * key_weight(mod, key)
        if scaled:
            out[key] = scaled
    return out


def apply_D(mod: ModulePresentation, w: WElem) -> WElem:
    """Translation operator: the mode-bumping derivation plus the module part."""
    out: WElem = {}
    for (word, s), c in w.items():
        for word2, c2 in derivative_elem({word: Fraction(1)}).items():
            add_into(out, (word2, s), c * c2)
        for t in range(mod.dim):
            entry = mod.dm[t][s]
            if entry:
                add_into(out, (word, t), c * entry)
    return out


def pairing(f: DualFunctional, w: WElem) -> Fraction:
    """Restricted-dual pairing: coefficientwise dot product over shared keys."""
    if len(f) > len(w):
        f, w = w, f
    total = Fraction(0)
    for key, c in f.items():
        other = w.get(key)
        if other:
            total += c * other
    return total


def dual_term(word: NegWord = (), index: int = 0, coeff=1) -> DualFunctional:
    return state(word, index, coeff)
