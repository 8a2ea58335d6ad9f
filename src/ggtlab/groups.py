"""Concrete finitely generated groups with exact normal forms and word metrics.

Four families are supported, all with solvable word problem and an exact
geodesic length function:

* free groups  (normal form: free reduction),
* free abelian groups  (normal form: sorted exponent vector, l^1 metric),
* free products of the above  (normal form: alternating syllables),
* direct products  G x Z  (normal form: componentwise).

Elements are stored as tuples of signed 1-based generator indices, always in
canonical normal form, and for every shipped family the geodesic word length
equals the length of the canonical letter tuple.  Generating sets are fixed to
the standard ones so that all metric computations are exact and reproducible.

The letters of a product model are global: a free product or G x Z numbers
its generators across its factors in order, and its normal forms, products
and inverses work on those numbers throughout.  A factor's syllable is merged
and inverted as it stands, with no relabelling to the factor's own numbering
(see `FreeProduct`).  Ball sizes come from each family's growth series
(`ball_size`), so a ball past the vertex budget is refused before it is built.
"""

from __future__ import annotations

from bisect import bisect_right
from copy import copy
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from itertools import accumulate, chain, compress, groupby, zip_longest
from math import comb
from operator import mul, ne, neg
from typing import Callable, Iterable, Sequence


class GroupError(ValueError):
    """Invalid group-theoretic input (bad letters, model mismatch, ...)."""


class BallCapError(GroupError):
    """A ball enumeration found more vertices than `BALL_VERTEX_BUDGET`."""


# vertices a ball enumeration may hold (about 300 bytes each); F2's radius-12
# ball (1062881 vertices) fits, its radius-13 ball does not
BALL_VERTEX_BUDGET = 2_000_000

# letters a parsed word may spell before it is reduced (its powers summed),
# so that a huge power is refused instead of expanded
WORD_LETTER_BUDGET = 1_000_000

_FREE_NAME_POOL = "abcdfghjklmn"
_ABELIAN_NAME_POOL = "xyzwuv"
_CENTRAL_NAME_POOL = "tsr"


# ---------------------------------------------------------------------------
# models


class GroupModel:
    """Base class: a concrete group with a fixed ordered generating set.

    Every model works on canonical letter tuples.  ``normalize`` takes any
    sequence of valid letters; ``inverse`` and ``product`` take normal forms
    and return normal forms, touching only the letters that change (the
    junction of the two factors of a product).  Letters are validated once,
    where they enter from outside (`normal_form`, `parse_word`).
    """

    generator_names: tuple[str, ...]

    @property
    def rank(self) -> int:
        return len(self.generator_names)

    def normalize(self, letters: Sequence[int]) -> tuple[int, ...]:
        raise NotImplementedError

    def inverse(self, letters: tuple[int, ...]) -> tuple[int, ...]:
        raise NotImplementedError

    def product(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def _growth(self) -> tuple[list[int], list[int]]:
        """Coefficients (P, Q), lowest degree first, of the growth series
        P/Q = sum_n |S(n)| z^n for the standard generators; Q[0] = 1."""
        raise NotImplementedError

    def validate_letters(self, letters: Sequence[int]) -> None:
        n = self.rank
        for ell in letters:
            if ell == 0 or abs(ell) > n:
                raise GroupError(f"letter {ell} does not index a generator of {self.describe()}")

    def sort_key(self, letters: tuple[int, ...]) -> tuple[int, ...]:
        """Length-lexicographic key of a normal form (see `Word.sort_key`)."""
        return (len(letters), *map(self._sort_rank.__getitem__, letters))

    def identity(self) -> "Word":
        return Word(self, ())

    def generators(self) -> list["Word"]:
        return [Word(self, (i + 1,)) for i in range(self.rank)]

    def _at(self, off: int) -> "GroupModel":
        """The model on its letters shifted up by off, as the factor of a
        free product whose earlier factors hold off generators sees them.
        Free and free abelian groups only compare letters, so they serve at
        any offset as they are."""
        return self

    def _build_tables(self) -> None:
        """Per-model constants, set once at construction: the hash, the
        Cayley-graph step set (one-letter tuples a, a^-1, b, b^-1, ..., the
        one spelling of the signed generators that `neighbours` and the ball
        search step by), and per letter its sort rank (generator i -> 2i, its
        inverse -> 2i+1), its generator's name and the spelling of a run of
        that one letter ("a", "a^-1").  Tables indexed by a signed letter use
        Python's negative indexing."""
        n = self.rank
        object.__setattr__(self, "_steps", tuple((s,) for i in range(1, n + 1) for s in (i, -i)))
        rank = [0] * (2 * n + 1)
        names = [""] * (2 * n + 1)
        singles = [""] * (2 * n + 1)
        for i, name in enumerate(self.generator_names, 1):
            rank[i], rank[-i] = 2 * i, 2 * i + 1
            names[i] = names[-i] = singles[i] = name
            singles[-i] = f"{name}^-1"
        object.__setattr__(self, "_sort_rank", rank)
        object.__setattr__(self, "_letter_names", names)
        object.__setattr__(self, "_single_runs", singles)
        key = (type(self).__name__, self.describe(), self.generator_names)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        # each dataclass model restates this, or the decorator would replace
        # it with a hash that recurses through the fields on every call
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


@dataclass(frozen=True, repr=False)
class FreeGroup(GroupModel):
    generator_names: tuple[str, ...]

    __hash__ = GroupModel.__hash__

    def __post_init__(self):
        if self.rank < 1:
            raise GroupError("free group needs rank >= 1")
        self._build_tables()

    def normalize(self, letters: Sequence[int]) -> tuple[int, ...]:
        stack: list[int] = []
        for ell in letters:
            if stack and stack[-1] == -ell:
                stack.pop()
            else:
                stack.append(ell)
        return tuple(stack)

    def inverse(self, letters: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(neg, reversed(letters)))

    def product(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        if not a or not b or a[-1] != -b[0]:
            return a + b
        n = min(len(a), len(b))
        k = 1
        while k < n and a[-1 - k] == -b[k]:
            k += 1
        return a[: len(a) - k] + b[k:]

    def _growth(self) -> tuple[list[int], list[int]]:
        return [1, 1], [1, 1 - 2 * self.rank]

    def describe(self) -> str:
        return f"F{self.rank}"


def _exponent_form(letters: Sequence[int]) -> tuple[int, ...]:
    """The free abelian normal form of letters: each generator's exponent,
    its letter count minus its inverse's, as a run in generator order.
    Letters are compared, never indexed, so any letter range works."""
    out: tuple[int, ...] = ()
    for i in sorted({*map(abs, letters)}):
        e = letters.count(i) - letters.count(-i)
        if e > 0:
            out += (i,) * e
        elif e:
            out += (-i,) * -e
    return out


@dataclass(frozen=True, repr=False)
class FreeAbelian(GroupModel):
    generator_names: tuple[str, ...]

    __hash__ = GroupModel.__hash__

    def __post_init__(self):
        if self.rank < 1:
            raise GroupError("free abelian group needs rank >= 1")
        self._build_tables()

    def normalize(self, letters: Sequence[int]) -> tuple[int, ...]:
        return _exponent_form(letters)

    def inverse(self, letters: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(neg, letters))

    def product(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        if not a or not b:
            return a or b
        return _exponent_form(a + b)

    def _growth(self) -> tuple[list[int], list[int]]:
        n = self.rank
        return [comb(n, i) for i in range(n + 1)], [(-1) ** i * comb(n, i) for i in range(n + 1)]

    def describe(self) -> str:
        return "Z" if self.rank == 1 else f"Z^{self.rank}"


@dataclass(frozen=True, repr=False)
class FreeProduct(GroupModel):
    """Free product of >= 2 factors; generators are globally indexed.

    Letters stay global throughout: a syllable is a run of one factor's
    global letters, and the factor merges and inverts it as it stands.  Each
    factor is read through its view at its letters' offset (`_at`), which is
    the factor itself unless its letters are indexed (a direct product's
    central letter, a nested free product's factor table)."""

    factors: tuple[GroupModel, ...]
    generator_names: tuple[str, ...] = field(init=False)

    __hash__ = GroupModel.__hash__

    def __post_init__(self):
        if len(self.factors) < 2:
            raise GroupError("free product needs >= 2 factors")
        names = tuple(n for f in self.factors for n in f.generator_names)
        if len(set(names)) != len(names):
            raise GroupError("generator names collide across factors")
        object.__setattr__(self, "generator_names", names)
        self._place(0)
        self._build_tables()

    def _place(self, off: int) -> None:
        """Index the factors for letters numbered from off + 1: per global
        letter its factor's index, and per factor its view at its offset."""
        factor_of, views = [0] * (2 * (off + self.rank) + 1), []
        for fi, f in enumerate(self.factors):
            for ell in range(off + 1, off + f.rank + 1):
                factor_of[ell] = factor_of[-ell] = fi
            views.append(f._at(off))
            off += f.rank
        object.__setattr__(self, "_factor_of", factor_of)
        object.__setattr__(self, "_views", tuple(views))

    def _at(self, off: int) -> "FreeProduct":
        view = copy(self)
        view._place(off)
        return view

    def normalize(self, letters: Sequence[int]) -> tuple[int, ...]:
        # stack of syllables (factor index, normalised global letters); each
        # maximal same-factor run of the input merges into it once
        stack: list[tuple[int, tuple[int, ...]]] = []
        views = self._views
        for fi, run in groupby(letters, self._factor_of.__getitem__):
            seg = tuple(run)
            if stack and stack[-1][0] == fi:
                seg = stack.pop()[1] + seg
            seg = views[fi].normalize(seg)
            if seg:
                stack.append((fi, seg))
        return tuple(chain.from_iterable(seg for _, seg in stack))

    def syllables(self, letters: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
        """Split canonical letters into (factor index, global letters) runs."""
        return [(fi, tuple(run)) for fi, run in groupby(letters, self._factor_of.__getitem__)]

    def syllable_factors(self, letters: Sequence[int]) -> list[int]:
        """The factor index of each syllable of canonical letters, in order,
        with no syllable built."""
        return [fi for fi, _ in groupby(map(self._factor_of.__getitem__, letters))]

    def strip(self, factor: int, letters: tuple[int, ...]) -> tuple[int, ...]:
        """Canonical letters without their last syllable when it lies in the
        factor: the key of the coset of `letters` times that factor."""
        factor_of, i = self._factor_of, len(letters)
        while i and factor_of[letters[i - 1]] == factor:
            i -= 1
        return letters[:i]

    def inverse(self, letters: tuple[int, ...]) -> tuple[int, ...]:
        views = self._views
        runs = reversed(self.syllables(letters))
        return tuple(chain.from_iterable(views[fi].inverse(seg) for fi, seg in runs))

    def product(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        factor_of = self._factor_of
        i, j, nb = len(a), 0, len(b)  # a[:i] and b[j:] are untouched
        while i and j < nb and factor_of[a[i - 1]] == factor_of[b[j]]:
            fi = factor_of[b[j]]
            i0, j1 = i - 1, j + 1
            while i0 and factor_of[a[i0 - 1]] == fi:
                i0 -= 1
            while j1 < nb and factor_of[b[j1]] == fi:
                j1 += 1
            merged = self._views[fi].product(a[i0:i], b[j:j1])
            i, j = i0, j1
            if merged:
                return a[:i] + merged + b[j:]
        return a[:i] + b[j:]

    def _growth(self) -> tuple[list[int], list[int]]:
        # 1/S = sum_i Q_i/P_i - (m - 1) over the denominator prod_i P_i
        parts = [f._growth() for f in self.factors]
        num = reduce(_poly_mul, [p for p, _ in parts])
        den = [(1 - len(parts)) * c for c in num]
        for i, (_, q) in enumerate(parts):
            term = reduce(_poly_mul, [p for j, (p, _) in enumerate(parts) if j != i], q)
            den = list(map(sum, zip_longest(den, term, fillvalue=0)))
        return num, den

    def describe(self) -> str:
        return " * ".join(
            f"({f.describe()})" if isinstance(f, (FreeProduct, DirectProduct)) else f.describe()
            for f in self.factors
        )


@dataclass(frozen=True, repr=False)
class DirectProduct(GroupModel):
    """G x Z with a central generator appended after G's generators."""

    left: GroupModel
    central_name: str
    generator_names: tuple[str, ...] = field(init=False)

    __hash__ = GroupModel.__hash__

    def __post_init__(self):
        if self.central_name in self.left.generator_names:
            raise GroupError("central generator name collides with left factor")
        object.__setattr__(self, "generator_names", self.left.generator_names + (self.central_name,))
        # 1-based letter value of the central generator
        object.__setattr__(self, "_c", len(self.generator_names))
        self._build_tables()

    @property
    def central_index(self) -> int:
        return self._c

    def split(self, letters: Sequence[int]) -> tuple[tuple[int, ...], int]:
        """Return (left-factor letters, central exponent)."""
        c = self._c
        return tuple(l for l in letters if abs(l) != c), letters.count(c) - letters.count(-c)

    def _cut(self, letters: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """`split` of a normal form, whose central letters all come last."""
        if letters and abs(letters[-1]) == self._c:
            i = letters.index(letters[-1])
            k = len(letters) - i
            return letters[:i], (k if letters[-1] > 0 else -k)
        return letters, 0

    def _at(self, off: int) -> "DirectProduct":
        view = copy(self)
        object.__setattr__(view, "left", self.left._at(off))
        object.__setattr__(view, "_c", self._c + off)
        return view

    def _central(self, exp: int) -> tuple[int, ...]:
        return (self._c if exp > 0 else -self._c,) * abs(exp)

    def normalize(self, letters: Sequence[int]) -> tuple[int, ...]:
        left, exp = self.split(letters)
        return self.left.normalize(left) + self._central(exp)

    def inverse(self, letters: tuple[int, ...]) -> tuple[int, ...]:
        left, exp = self._cut(letters)
        return self.left.inverse(left) + self._central(-exp)

    def product(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        (la, ea), (lb, eb) = self._cut(a), self._cut(b)
        return self.left.product(la, lb) + self._central(ea + eb)

    def _growth(self) -> tuple[list[int], list[int]]:
        p, q = self.left._growth()
        return _poly_mul(p, [1, 1]), _poly_mul(q, [1, -1])

    def describe(self) -> str:
        inner = self.left.describe()
        if isinstance(self.left, (FreeProduct, DirectProduct)):
            inner = f"({inner})"
        return f"{inner} x Z"


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# words


class Word:
    """A group element in canonical normal form for its model.

    An immutable slotted pair (model, letters): `__init__` writes the two
    slots through their descriptors and any later assignment or deletion
    raises.  Equality compares the model and the letters, the hash is the
    letters' hash, and `repr` reads `Word(model=..., letters=...)`.  The
    chain and ball code works on letter tuples and builds a `Word` only
    where a caller reads one.
    """

    __slots__ = ("model", "letters")

    model: GroupModel
    letters: tuple[int, ...]

    def __init__(self, model: GroupModel, letters: tuple[int, ...]) -> None:
        _set_word_model(self, model)
        _set_word_letters(self, letters)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Word")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable Word")

    def __reduce__(self):
        return Word, (self.model, self.letters)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Word:
            return NotImplemented
        return (self.model, self.letters) == (other.model, other.letters)

    def __repr__(self) -> str:
        return f"Word(model={self.model!r}, letters={self.letters!r})"

    def __len__(self) -> int:
        # geodesic word length; for all shipped models this is the canonical
        # letter count
        return len(self.letters)

    def __hash__(self) -> int:
        # equal words have equal letters; the model is left to __eq__
        return hash(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        model = self.model
        if other.model is not model and other.model != model:
            raise GroupError("cannot multiply words from different models")
        return Word(model, model.product(self.letters, other.letters))

    def inverse(self) -> "Word":
        return Word(self.model, self.model.inverse(self.letters))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        out = self.model.identity()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_identity(self) -> bool:
        return not self.letters

    def sort_key(self) -> tuple[int, ...]:
        """Length-lexicographic key; positive letters sort before inverses.

        A flat tuple: the length, then each letter's rank (generator i ranks
        2i, its inverse 2i+1)."""
        return self.model.sort_key(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        parts: list[str] = []
        _spell_runs(self.model, self.letters, 0, parts)
        return " ".join(parts)


_set_word_model, _set_word_letters = Word.model.__set__, Word.letters.__set__


def _spell_runs(model: GroupModel, letters: tuple[int, ...], i: int, parts: list[str]) -> None:
    """Append the spelling of each run of equal letters in letters[i:] ("a",
    "b^-1", "a^3") to parts; letters[i:] must not be empty.  The one speller
    of words: `Word.__str__` and `spell_letters` join its parts with spaces."""
    names, singles = model._letter_names, model._single_runs
    run, n = letters[i], 0
    for ell in letters[i:] + (0,):  # 0 is no letter: it closes the last run
        if ell == run:
            n += 1
            continue
        parts.append(singles[run] if n == 1 else f"{names[run]}^{n if run > 0 else -n}")
        run, n = ell, 1


def spell_letters(model: GroupModel, paths: Iterable[tuple[int, ...]]) -> list[str]:
    """[str(Word(model, ls)) for ls in paths], each spelling built from the
    one before it.

    For the previous state it keeps its text, where each of its runs starts
    (in letters and in the text) and the text before its last run.  A state
    that adds or removes one letter at the end of the previous one changes
    only its last run, or adds or drops one, so its text is that head plus
    one run's part: O(1) Python work and a concatenation or two.  Any other
    state shares a prefix with the previous one, found by slice compares at
    the shorter length and then 1, 3, 7, ... letters below it; the text up
    to the run through its last letter is kept and the rest is spelled
    again by `_spell_runs`."""
    names, singles = model._letter_names, model._single_runs
    out: list[str] = []
    prev, text, head = (), "e", ""
    starts: list[int] = []  # where each run of prev starts in prev
    cuts: list[int] = []  # and where its part starts in text; head is text[: cuts[-1]]
    for letters in paths:
        n, m = len(prev), len(letters)
        if n and m == n + 1 and letters[:n] == prev:
            if letters[n] != prev[-1]:
                head = text + " "
                starts.append(n)
                cuts.append(len(head))
        elif m and m == n - 1 and prev[:m] == letters:
            if starts[-1] == m:
                del starts[-1], cuts[-1]
                head = text[: cuts[-1]]
        else:
            k, gap = min(n, m), 1
            while prev[:k] != letters[:k]:
                k, gap = max(0, k - gap), 2 * gap
            if k:  # prev's run j through letter k - 1 is spelled again, and all after it
                j = bisect_right(starts, k - 1) - 1
                s, cut = starts[j], cuts[j]
            else:
                j = s = cut = 0
            del starts[j:], cuts[j:]
            if letters:
                parts: list[str] = []
                _spell_runs(model, letters, s, parts)
                text = text[:cut] + " ".join(parts)
                starts += [s, *compress(range(s + 1, m), map(ne, letters[s + 1 :], letters[s:]))]
                cuts += accumulate((len(part) + 1 for part in parts[:-1]), initial=cut)
                head = text[: cuts[-1]]
            else:
                text = "e"
            out.append(text)
            prev = letters
            continue
        ell, c = letters[-1], m - starts[-1]
        text = head + singles[ell] if c == 1 else f"{head}{names[ell]}^{c if ell > 0 else -c}"
        out.append(text)
        prev = letters
    return out


def normal_form(model: GroupModel, raw: Sequence[int]) -> Word:
    """Canonical word for an arbitrary sequence of signed generator letters."""
    raw = tuple(raw)
    model.validate_letters(raw)
    return Word(model, model.normalize(raw))


def word_distance(model: GroupModel, g: Word, h: Word) -> int:
    """Word metric d(g, h) = |g^-1 h| for the model's standard generators."""
    if (g.model is not model and g.model != model) or (h.model is not model and h.model != model):
        raise GroupError("word_distance: model mismatch")
    return len(model.product(model.inverse(g.letters), h.letters))


def distance_from(model: GroupModel, g: Word) -> Callable[[Word], int]:
    """The function h -> d(g, h) = |g^-1 h|, with g inverted once.

    On G x Z, g is cut into its G-letters and central exponent once and
    each h once: |g^-1 h| is |g_G^-1 h_G| + |e_h - e_g|, which is how
    `DirectProduct.product` spells g^-1 h.  The h must be words of the
    model; only g is checked."""
    if g.model is not model and g.model != model:
        raise GroupError("distance_from: model mismatch")
    if isinstance(model, DirectProduct):
        cut = model._cut
        g_left, e_g = cut(g.letters)
        g_inv, product = model.left.inverse(g_left), model.left.product

        def distance(h: Word) -> int:
            h_left, e_h = cut(h.letters)
            return len(product(g_inv, h_left)) + abs(e_h - e_g)

        return distance
    g_inv, product = model.inverse(g.letters), model.product
    return lambda h: len(product(g_inv, h.letters))


def distance_row(model: GroupModel, g: Word, hs: Iterable[Word]) -> list[int]:
    """[d(g, h) for h in hs], inverting g once (see `distance_from`)."""
    return list(map(distance_from(model, g), hs))


def word_diameter(model: GroupModel, points: Iterable[Word]) -> int:
    """Largest word distance between two of the points; 0 for fewer than two."""
    return diameter(points, partial(distance_row, model))


def neighbours(model: GroupModel, letters: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The letters of the Cayley-graph neighbours w s of the normal form w,
    for s = a, a^-1, b, b^-1, ... (sort_key order): the products with the
    model's step set, which lives in one per-model table."""
    product = model.product
    return [product(letters, s) for s in model._steps]


def diameter(points: Iterable, row: Callable[[object, list], list[int]]) -> int:
    """Largest distance between two of the points, 0 for fewer than two:
    the largest entry of row(p, qs), the distances from p to each of qs,
    over each point p and the points after it."""
    pts = list(points)
    return max((d for i in range(len(pts) - 1) for d in row(pts[i], pts[i + 1 :])), default=0)


def ball_size(model: GroupModel, radius: int) -> int:
    """The number of elements of word length at most radius, with no ball
    built: partial sums of the model's rational growth series P/Q (de la
    Harpe, *Topics in Geometric Group Theory*, ch. VI), whose sphere sizes
    follow s_n = p_n - sum_{k >= 1} q_k s_{n-k}.  Per factor: F_k gives
    (1 + z)/(1 - (2k - 1)z), Z^n gives ((1 + z)/(1 - z))^n, a free product
    of m factors 1/S = sum_i 1/S_i - (m - 1), and G x Z gives S_G S_Z.

    Raises BallCapError as soon as the count passes `BALL_VERTEX_BUDGET`:
    no ball that size is built, so the count stops there."""
    if radius < 0:
        raise GroupError("radius must be >= 0")
    budget = BALL_VERTEX_BUDGET
    # each sphere past the centre holds g^n and g^-n for a generator g, so a
    # ball has at least 2 radius + 1 elements, and past the budget it is
    # refused without its series
    total = 2 * radius + 1
    if total <= budget:
        p, q = model._growth()
        spheres: list[int] = []
        total = 0
        for n in range(radius + 1):
            s = (p[n] if n < len(p) else 0) - sum(map(mul, q[1:], reversed(spheres)))
            spheres.append(s)
            total += s
            if total > budget:
                break
    if total > budget:
        raise BallCapError(f"the radius-{radius} ball of {model.describe()} has more than {budget} vertices")
    return total


def ball_letters(model: GroupModel, center: Word, radius: int) -> list[tuple[int, ...]]:
    """The letters of all h with d(center, h) <= radius, in length-
    lexicographic order (`Word.sort_key`), with no `Word` built.

    The search runs on letter tuples, each vertex's neighbours its
    `neighbours`.  A ball past `BALL_VERTEX_BUDGET` vertices is refused
    before the search, by its `ball_size`."""
    ball_size(model, radius)
    if center.model != model:
        raise GroupError("ball: model mismatch")
    seen = {center.letters}
    frontier = [center.letters]
    for _ in range(radius):
        nxt = []
        for ls in frontier:
            for v in neighbours(model, ls):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    # the keys are distinct, so the order does not depend on the set's
    return sorted(seen, key=model.sort_key)


def ball(model: GroupModel, center: Word, radius: int) -> list[Word]:
    """All h with d(center, h) <= radius, in length-lexicographic order: one
    `Word` per vertex of `ball_letters`, whose steps come from the model's
    one step table (see `neighbours`)."""
    return [Word(model, ls) for ls in ball_letters(model, center, radius)]


def geodesic(model: GroupModel, g: Word, h: Word, reverse: bool = False) -> tuple[Word, ...]:
    """The vertices of a unit-speed geodesic from g to h (consecutive ones
    differ by one generator): g times each prefix of the normal form of
    g^-1 h (a normal form too); with ``reverse``, the one from h to g read
    backwards.  Each step goes to the first neighbour in `neighbours` order
    that is closer to h, or with ``reverse`` the last."""
    if g.model != model or h.model != model:
        raise GroupError("geodesic: model mismatch")
    if reverse:
        return geodesic(model, h, g)[::-1]
    product, start = model.product, g.letters
    w = product(model.inverse(start), h.letters)
    return tuple(Word(model, product(start, w[:i])) for i in range(len(w) + 1))


# ---------------------------------------------------------------------------
# parsing


def _allocate_names(spec_tree, used: set[str]) -> GroupModel:
    """Instantiate a parsed model tree, drawing generator names from pools."""

    def take(pool: str, count: int) -> tuple[str, ...]:
        out = []
        for ch in pool:
            if ch not in used:
                used.add(ch)
                out.append(ch)
                if len(out) == count:
                    return tuple(out)
        raise GroupError("generator name pool exhausted")

    kind = spec_tree[0]
    if kind == "free":
        return FreeGroup(take(_FREE_NAME_POOL, spec_tree[1]))
    if kind == "abelian":
        return FreeAbelian(take(_ABELIAN_NAME_POOL, spec_tree[1]))
    if kind == "freeprod":
        return FreeProduct(tuple(_allocate_names(t, used) for t in spec_tree[1]))
    if kind == "directz":
        left = _allocate_names(spec_tree[1], used)
        return DirectProduct(left, take(_CENTRAL_NAME_POOL, 1)[0])
    raise GroupError(f"unknown model kind {kind}")  # pragma: no cover


def _tokenize_model(text: str) -> list[str]:
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()*":
            toks.append(ch)
            i += 1
        elif ch == "x" and (i + 1 == len(text) or not text[i + 1].isalnum()):
            toks.append("x")
            i += 1
        else:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "^"):
                j += 1
            if j == i:
                raise GroupError(f"unexpected character {ch!r} in model descriptor {text!r}")
            toks.append(text[i:j])
            i = j
    return toks


def parse_model(text: str) -> GroupModel:
    """Parse a compact descriptor: ``F2``, ``Z^2 * Z``, ``(Z^2 * Z) x Z``.

    ``*`` builds free products, ``x`` builds a direct product with Z (the
    right operand must be Z).  Generator names are assigned from fixed pools:
    free factors get a, b, c, ...; abelian factors get x, y, z, ...; the
    central Z of a direct product gets t.
    """
    toks = _tokenize_model(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def atom():
        nonlocal pos
        t = peek()
        if t == "(":
            pos += 1
            node = expr()
            if peek() != ")":
                raise GroupError(f"unbalanced parentheses in {text!r}")
            pos += 1
            return node
        if t is None:
            raise GroupError(f"unexpected end of descriptor {text!r}")
        pos += 1
        if t == "Z":
            return ("abelian", 1)
        for prefix, kind in (("F", "free"), ("Z^", "abelian")):
            digits = t[len(prefix):]
            if t.startswith(prefix) and digits.isdigit():
                if int(digits) == 0:
                    raise GroupError(f"model atom {t!r} has rank 0; a factor needs rank >= 1")
                return (kind, int(digits))
        raise GroupError(f"cannot parse model atom {t!r}")

    def expr():
        nonlocal pos
        node = atom()
        while peek() in ("*", "x"):
            op = peek()
            pos += 1
            rhs = atom()
            if op == "*":
                if node[0] == "freeprod":
                    node = ("freeprod", node[1] + [rhs])
                else:
                    node = ("freeprod", [node, rhs])
            else:
                if rhs != ("abelian", 1):
                    raise GroupError("direct products are only supported as G x Z")
                node = ("directz", node)
        return node

    tree = expr()
    if pos != len(toks):
        raise GroupError(f"trailing tokens in model descriptor {text!r}")
    return _allocate_names(tree, set())


@lru_cache(maxsize=None)
def model_from_descriptor(text: str) -> GroupModel:
    """Cached parse so that equal descriptors give identical model objects."""
    return parse_model(text)


def parse_word(model: GroupModel, text: str) -> Word:
    """Parse whitespace-separated letters with ^ powers, e.g. ``b a^5 b``."""
    text = text.strip()
    if text in ("", "e", "1"):
        return model.identity()
    name_to_idx = {n: i + 1 for i, n in enumerate(model.generator_names)}
    powers: list[tuple[int, int]] = []
    for tok in text.split():
        if "^" in tok:
            name, _, p = tok.partition("^")
            try:
                power = int(p)
            except ValueError:
                raise GroupError(f"bad power in token {tok!r}") from None
        else:
            name, power = tok, 1
        if name not in name_to_idx:
            raise GroupError(f"unknown generator {name!r} for model {model.describe()}")
        powers.append((name_to_idx[name], power))
    length = sum(abs(power) for _, power in powers)
    if length > WORD_LETTER_BUDGET:
        raise GroupError(f"word spells {length} letters; at most {WORD_LETTER_BUDGET} are parsed")
    raw: list[int] = []
    for idx, power in powers:
        raw.extend([idx if power > 0 else -idx] * abs(power))
    return normal_form(model, raw)


def parse_grid(name: str, text: str, kind: type) -> tuple:
    """Comma-separated values of `kind`, e.g. ``4,6,8``; an entry that is not
    one, an empty one included, is refused under `name`, the flag or config
    key that gave the text."""
    try:
        return tuple(map(kind, text.split(",")))
    except ValueError:
        raise GroupError(f"{name} must be comma-separated {kind.__name__} values, got {text!r}") from None
