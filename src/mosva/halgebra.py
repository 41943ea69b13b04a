"""The base space, free creation words, and block-normal-form rewriting.

The configured base space is a finite-dimensional rational vector space with a
bilinear form given as its Gram matrix.  Creation words a_{i1}(-m1)...a_{ik}(-mk)1
are tuples of (basis index, positive mode order) pairs, the empty tuple being
the vacuum; elements of the free tensor algebra are sparse rational
combinations of such words, multiplied by concatenation (noncommutatively).

Rewriting a word in generators of the full affinized algebra moves the central
element and zero modes to the right and annihilation modes past creation
modes, the latter at the cost of the contraction scalar m*(a,b) when the mode
orders match.  Factors are never reordered inside a block: creation modes
among themselves, annihilation modes among themselves, and zero modes among
themselves stay free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .scalars import LETTERS, charge, check_exact, q, render_signed_sum

# a_i(-m) with m >= 1; the empty tuple is the vacuum word
NegWord = Tuple[Tuple[int, int], ...]
FreeElem = Dict[NegWord, Fraction]

# generators of the affinized algebra: ("m", basis index, mode) or the central ("k",)
HatGen = Tuple
CENTRAL: HatGen = ("k",)

# (negative modes, positive modes, zero-mode indices, central power)
PBWWord = Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...], Tuple[int, ...], int]
PBWElem = Dict[PBWWord, Fraction]
Matrix = Tuple[Tuple[Fraction, ...], ...]


def mode(i: int, n: int) -> HatGen:
    return ("m", i, n)


def square_matrix(rows: Sequence[Sequence], dim: int, name: str) -> Matrix:
    """rows as a dim x dim tuple of exact rationals; ValueError naming `name` otherwise."""
    if len(rows) != dim or any(len(row) != dim for row in rows):
        raise ValueError(f"{name} is not {dim}x{dim}")
    return tuple(tuple(q(x) for x in row) for row in rows)


@dataclass(frozen=True)
class HSpace:
    """Base vector space of dimension dim with bilinear form entries (a_i, a_j)."""

    dim: int
    form: Matrix

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        object.__setattr__(self, "form", square_matrix(self.form, self.dim, "form"))
        # every memo keyed by the space would otherwise rehash each entry
        object.__setattr__(self, "_hash", hash((self.dim, self.form)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def identity(cls, dim: int) -> "HSpace":
        return cls(dim, tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim)))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "HSpace":
        return cls(len(rows), rows)

    def pairing(self, i: int, j: int) -> Fraction:
        return self.form[i][j]


def det(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    m = [list(row) for row in matrix]
    n = len(m)
    out = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            out = -out
        out *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return out


def validate_hspace(
    h: HSpace, require_nondegenerate: bool = False, require_symmetric: bool = False
) -> List[str]:
    """Diagnostics for opt-in form requirements; empty list means pass.

    The construction itself only reads form entries, so nothing is required
    unless the caller asks for it.
    """
    problems = []
    if require_nondegenerate and det(h.form) == 0:
        problems.append("form is degenerate (det = 0)")
    if require_symmetric:
        for i in range(h.dim):
            for j in range(i + 1, h.dim):
                if h.form[i][j] != h.form[j][i]:
                    problems.append(f"form not symmetric at ({i + 1}, {j + 1})")
    return problems


# -- free elements -----------------------------------------------------------


def word_weight(word: NegWord) -> int:
    return sum(m for _, m in word)


def vacuum_elem() -> FreeElem:
    return {(): 1}


def word_elem(word: Iterable[Tuple[int, int]], coeff=1) -> FreeElem:
    c = q(coeff)
    return {tuple(word): c} if c else {}


def add_into(acc: Dict, key, coeff) -> None:
    got = acc.get(key)
    if got is None:
        if coeff:
            acc[key] = coeff
    else:
        got = got + coeff
        if got:
            acc[key] = got
        else:
            del acc[key]


def add_terms(acc: Dict, terms: Iterable[Tuple], scale=1) -> None:
    """add_into for every (key, coeff) of terms, each coeff times scale.

    One call per polynomial or element keeps the per-term loop free of call
    overhead on hot paths.
    """
    unit = scale == 1
    for key, coeff in terms:
        if not unit:
            coeff = coeff * scale
        got = acc.get(key)
        if got is None:
            if coeff:
                acc[key] = coeff
        else:
            got = got + coeff
            if got:
                acc[key] = got
            else:
                del acc[key]


def free_add(u: FreeElem, v: FreeElem) -> FreeElem:
    check_exact(u, v)
    out = dict(u)
    add_terms(out, v.items())
    return out


def free_scale(u: FreeElem, c) -> FreeElem:
    check_exact(u)
    c = q(c)
    if not c:
        return {}
    return {w: c * x for w, x in u.items()}


def free_mul(u: FreeElem, v: FreeElem) -> FreeElem:
    """Concatenation product, extended bilinearly; noncommutative."""
    check_exact(u, v)
    out: FreeElem = {}
    for w1, c1 in u.items():
        for w2, c2 in v.items():
            add_into(out, w1 + w2, c1 * c2)
    return out


def weight(u: FreeElem) -> Optional[int]:
    """Common weight of all words, or None when inhomogeneous (0 for vacuum)."""
    if not u:
        return 0
    weights = {word_weight(w) for w in u}
    if len(weights) == 1:
        return weights.pop()
    return None


def derivative_elem(u: FreeElem) -> FreeElem:
    """The weight-raising derivation: each a(-m) factor bumps to m * a(-m-1)."""
    out: FreeElem = {}
    for word, c in u.items():
        for p, (i, m) in enumerate(word):
            bumped = word[:p] + ((i, m + 1),) + word[p + 1:]
            add_into(out, bumped, c * m)
    return out


# -- rewriting to the block normal form ---------------------------------------


def _rank(g: HatGen) -> int:
    if g[0] == "k":
        return 3
    n = g[2]
    if n < 0:
        return 0
    if n > 0:
        return 1
    return 2


def _split_blocks(word: Tuple[HatGen, ...]) -> PBWWord:
    neg, pos, zero, c = [], [], [], 0
    for g in word:
        if g[0] == "k":
            c += 1
        elif g[2] < 0:
            neg.append((g[1], g[2]))
        elif g[2] > 0:
            pos.append((g[1], g[2]))
        else:
            zero.append(g[1])
    return (tuple(neg), tuple(pos), tuple(zero), c)


def _contractible(word: Tuple[HatGen, ...], h: HSpace) -> bool:
    """Whether some a_i(m), m > 0, stands left of an a_j(-m) with (a_i, a_j) != 0.

    Only such a pair pays a contraction scalar when sorting brings it
    together; sorting never inverts a pair, so without one the word's block
    normal form is its stable sort by rank.
    """
    positives: Dict[int, set] = {}  # order m -> basis indices of the a_i(m) seen
    for g in word:
        if g[0] == "m":
            n = g[2]
            if n > 0:
                positives.setdefault(n, set()).add(g[1])
            elif -n in positives and any(h.pairing(i, g[1]) for i in positives[-n]):
                return True
    return False


def pbw_normal_form(
    gens: Sequence[HatGen], h: HSpace, strategy: str = "leftmost"
) -> PBWElem:
    """Rewrite a generator word into the block normal form.

    Only the cross-block relations are used: the central element commutes with
    every mode, zero modes commute with nonzero modes and the central element,
    and an annihilation mode commutes past a creation mode up to the
    contraction scalar m*(a,b) when the orders cancel.  Adjacent factors
    inside one block are never exchanged, so the result is a combination of
    words shaped (negatives)(positives)(zeros)(central power).  A word with no
    contractible pair left is sorted at once; the others swap the strategy's
    first adjacent inversion.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    result: PBWElem = {}
    stack: List[Tuple[Tuple[HatGen, ...], Fraction]] = [(tuple(gens), 1)]
    while stack:
        word, coeff = stack.pop()
        charge(len(word), LETTERS)
        if not _contractible(word, h):
            add_into(result, _split_blocks(word), coeff)
            continue
        ranks = [_rank(g) for g in word]
        positions = range(len(word) - 1)
        if strategy == "rightmost":
            positions = reversed(positions)
        idx = next(p for p in positions if ranks[p] > ranks[p + 1])
        x, y = word[idx], word[idx + 1]
        stack.append((word[:idx] + (y, x) + word[idx + 2:], coeff))
        if x[0] == "m" and y[0] == "m" and x[2] > 0 and x[2] + y[2] == 0:
            scalar = coeff * x[2] * h.pairing(x[1], y[1])
            if scalar:
                stack.append((word[:idx] + (CENTRAL,) + word[idx + 2:], scalar))
    return result


def graded_dimension(h: HSpace, n: int) -> int:
    """Dimension of the weight-n subspace of the free creation algebra.

    Sums dim**k over compositions (m_1, ..., m_k) of n; computed by the
    recurrence dim(n) = d * sum_{m=1..n} dim(n-m) with dim(0) = 1.
    """
    if n < 0:
        return 0
    dims = [1]
    for w in range(1, n + 1):
        dims.append(h.dim * sum(dims))
    return dims[n]


def basis_words(dim: int, total: int) -> List[NegWord]:
    """All creation words of exact weight `total` over `dim` basis directions."""
    if total == 0:
        return [()]
    out: List[NegWord] = []
    for m in range(1, total + 1):
        for tail in basis_words(dim, total - m):
            for i in range(dim):
                out.append(((i, m),) + tail)
    return out


def basis_words_up_to(dim: int, max_total: int) -> List[NegWord]:
    out: List[NegWord] = []
    for n in range(max_total + 1):
        out.extend(basis_words(dim, n))
    return out


# -- rendering -----------------------------------------------------------------


def render_word(word: NegWord) -> str:
    return "".join(f"a{i + 1}(-{m})" for i, m in word) + "1"


def word_sort_key(word: NegWord):
    return (word_weight(word), len(word), word)


def render_free_elem(u: FreeElem) -> str:
    return render_signed_sum((u[word], render_word(word)) for word in sorted(u, key=word_sort_key))


def render_pbw_word(word: PBWWord) -> str:
    neg, pos, zero, c = word
    parts = [f"a{i + 1}({n})" for i, n in neg]
    parts += [f"a{i + 1}({n})" for i, n in pos]
    parts += [f"a{i + 1}(0)" for i in zero]
    if c == 1:
        parts.append("k")
    elif c > 1:
        parts.append(f"k^{c}")
    return "".join(parts) if parts else "1"


def render_pbw_elem(u: PBWElem) -> str:
    # scalar shown for pure central/identity words (no mode factor), so "k"
    # reads as "1*k"
    return render_signed_sum(
        ((u[word], render_pbw_word(word)) for word in sorted(u, key=lambda w: (w[3], w))),
        show_unit=lambda body: not body.startswith("a"),
    )
