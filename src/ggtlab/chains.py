"""Markov chains with bounded jumps on group models, and bijective QIs.

Every chain is a `Kernel`: a group-invariant step law (a random walk),
optionally pushed forward through a bijective quasi-isometry f.
Transition probabilities are exact fractions.  One engine, `Walk`, samples
a kernel from each trajectory's own counter-based stream, so runs are
reproducible independently of scheduling; an `ensemble` of walks re-keys one
generator per trajectory and draws the walks' steps in blocks.  Every walk
is handed one flat letter stream, its picks read through the kernel's
padded step table: a free-group walk steps through it on a letter stack,
any other folds it through the model's product a letter at a time, and
callers that follow the walk themselves read the same stream.  One engine,
`ExactLaw`, advances exact distributions in integer weights over a running
denominator; it is the one exact law, and every tameness diagnostic
(irreducibility, decay of point probabilities, reachability) reads it, for
walks and push-forwards alike.  Both run a push-forward by conjugation: the
walk runs from f^-1(start) and f maps what is read.  Letter tuples are the
currency of this layer: every QI maps letters (`BijectiveQI.map`; the
branch swap through one lookup in a letter table), and a `Word` is built
only where a caller reads one.  `simulate` reads every state, so a pushed
trajectory keeps the letters of each state, folded letter by letter from
the stream (by `_push` on a free group, through the model's product
elsewhere) and mapped by f, and `Trajectory.to_json` spells them with
`groups.spell_letters`, which builds each state's text from the one before
it: a state one letter longer or shorter at its end, as every state of a
free-group walk is, costs O(1) Python work and one run's part.

numpy loads at first use: each function that draws or fits imports it
itself, so importing this module leaves numpy out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import accumulate, islice
from math import lcm
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .groups import (
    FreeGroup,
    GroupModel,
    Word,
    ball,
    ball_letters,
    distance_from,
    distance_row,
    neighbours,
    spell_letters,
    word_distance,
)


class ChainError(ValueError):
    """Invalid kernel construction or query."""


class WitnessError(ChainError):
    """A constructed symmetry witness does not carry p to q."""


# ---------------------------------------------------------------------------
# bijective quasi-isometries


class BijectiveQI:
    """Base class for the shipped bijective self-quasi-isometries.

    Each map implements `map`, which takes the letters of a normal form and
    returns the letters of its image, also a normal form: the chains work on
    letter tuples and build a `Word` only where a caller reads one.  `apply`
    is the same map on words."""

    model: GroupModel
    claimed_nu: float

    def map(self, letters: tuple[int, ...]) -> tuple[int, ...]:
        raise NotImplementedError

    def apply(self, w: Word) -> Word:
        return Word(self.model, self.map(w.letters))

    def inverse(self) -> "BijectiveQI":
        raise NotImplementedError

    def __call__(self, w: Word) -> Word:
        return self.apply(w)

    def check_bijective(self, radius: int) -> bool:
        pts = ball_letters(self.model, self.model.identity(), radius)
        images = list(map(self.map, pts))
        if len(set(images)) != len(images):
            return False
        return list(map(self.inverse().map, images)) == pts

    def measured_qi_constants(self, radius: int) -> float:
        """Smallest nu with d/nu - nu <= d(images) <= nu*d + nu on the ball."""
        pts = ball(self.model, self.model.identity(), radius)
        images = [self.apply(w) for w in pts]
        nu = 1.0
        for i in range(len(pts)):
            row = distance_row(self.model, pts[i], pts[i + 1 :])
            image_row = distance_row(self.model, images[i], images[i + 1 :])
            for d, fd in zip(row, image_row):
                if fd > d:
                    # need nu*d + nu >= fd
                    nu = max(nu, fd / (d + 1))
                if fd < d:
                    # need d/nu - nu <= fd, i.e. nu^2 + fd*nu - d >= 0
                    nu = max(nu, (-fd + (fd * fd + 4 * d) ** 0.5) / 2)
        return nu


def _letter_table(images: Sequence[int]) -> tuple[int, ...]:
    """The image of every signed letter under generator i -> images[i - 1]
    (inverses to inverses), indexed like the models' letter tables: negative
    letters from the end."""
    return (0, *images, *(-ell for ell in reversed(images)))


def _relabel(table: tuple[int, ...], letters: tuple[int, ...]) -> tuple[int, ...]:
    """The letters read through the table, by one C-level lookup (which
    returns a bare letter, not a tuple, for a single index)."""
    if len(letters) > 1:
        return itemgetter(*letters)(table)
    return (table[letters[0]],) if letters else ()


@dataclass(frozen=True)
class LeftTranslation(BijectiveQI):
    model: GroupModel
    g: Word
    claimed_nu = 1.0

    def map(self, letters: tuple[int, ...]) -> tuple[int, ...]:
        return self.model.product(self.g.letters, letters)

    def inverse(self) -> "LeftTranslation":
        return LeftTranslation(self.model, self.g.inverse())


@dataclass(frozen=True)
class GeneratorPermutation(BijectiveQI):
    """An automorphism permuting the standard generators (free/abelian only)."""

    model: GroupModel
    images: tuple[int, ...]  # images[i] = signed letter that generator i+1 maps to
    claimed_nu = 1.0

    def __post_init__(self):
        if sorted(abs(i) for i in self.images) != list(range(1, self.model.rank + 1)):
            raise ChainError("generator images must form a signed permutation")
        object.__setattr__(self, "_table", _letter_table(self.images))

    def map(self, letters: tuple[int, ...]) -> tuple[int, ...]:
        return self.model.normalize(_relabel(self._table, letters))

    def inverse(self) -> "GeneratorPermutation":
        inv = [0] * self.model.rank
        for i, img in enumerate(self.images):
            inv[abs(img) - 1] = (i + 1) if img > 0 else -(i + 1)
        return GeneratorPermutation(self.model, tuple(inv))


@dataclass(frozen=True)
class CompositionQI(BijectiveQI):
    """parts[0] applied last (usual composition order)."""

    model: GroupModel
    parts: tuple[BijectiveQI, ...]

    def map(self, letters: tuple[int, ...]) -> tuple[int, ...]:
        for p in reversed(self.parts):
            letters = p.map(letters)
        return letters

    def inverse(self) -> "CompositionQI":
        return CompositionQI(self.model, tuple(p.inverse() for p in reversed(self.parts)))


@dataclass(frozen=True)
class BranchSwap(BijectiveQI):
    """Transposes the subtrees of a and b, the first two generators.

    The depth-1 table {a <-> b} is repeated equivariantly below the swapped
    vertices: a word a*u maps to b*sigma(u), with sigma the letterwise
    relabel a <-> b, read from a table of all signed letters built once per
    swap (c, d, ... of a larger rank map to themselves).  Relabelling keeps
    a reduced word reduced, so the image needs no normalising.  This is a
    tree automorphism of the Cayley tree, hence an exact isometry, but
    neither a translation nor a group automorphism (words starting with an
    inverse generator, or with c, d, ..., are fixed).
    """

    model: FreeGroup
    claimed_nu = 1.0

    def __post_init__(self):
        if not isinstance(self.model, FreeGroup):
            raise ChainError("branch swaps live on free groups")
        if self.model.rank < 2:
            raise ChainError("branch swap needs two distinct positive generators")
        object.__setattr__(self, "_table", _letter_table((2, 1, *range(3, self.model.rank + 1))))

    def map(self, letters: tuple[int, ...]) -> tuple[int, ...]:
        if letters and letters[0] in (1, 2):
            return _relabel(self._table, letters)
        return letters

    def inverse(self) -> "BranchSwap":
        return self


def branch_swap(model: FreeGroup) -> BranchSwap:
    """Depth-1 branch swap transposing the subtrees of a and b."""
    return BranchSwap(model)


# ---------------------------------------------------------------------------
# kernels


@dataclass(frozen=True)
class Kernel:
    """A random walk pushed through an optional bijective QI f.

    The walk is one invariant step measure mu on an ordered set of distinct
    jump words.  Its push-forward moves from x to f(f^-1(x) s) with
    probability mu(s), i.e. q(x, y) = p(f^-1 x, f^-1 y); without f the
    chain is the walk itself.  `push_forward` sets f, checked bijective.
    """

    model: GroupModel
    measure: tuple[tuple[Word, Fraction], ...]
    qi: BijectiveQI | None = None

    def __post_init__(self):
        total = sum(p for _, p in self.measure)
        if total != 1:
            raise ChainError(f"step measure sums to {total}, not 1")
        if any(p < 0 for _, p in self.measure):
            raise ChainError("negative probability")
        # distinct jumps keep the pushed law free of merged targets, in the
        # measure's order, which walking by conjugation relies on
        if len({s for s, _ in self.measure}) != len(self.measure):
            raise ChainError("jump words must be distinct")

    @cached_property
    def cdf(self) -> np.ndarray:
        return _cdf(p for _, p in self.measure)

    @cached_property
    def step_table(self) -> np.ndarray:
        """The letters of each jump word, in the measure's order, padded with
        0 to J letters, J the longest jump and at least 1: a walk's letter
        stream is its picks read through this table."""
        import numpy as np

        jumps = [s.letters for s, _ in self.measure]
        table = np.zeros((len(jumps), max(1, *map(len, jumps))), dtype=np.int64)
        for row, letters in zip(table, jumps):
            row[: len(letters)] = letters
        return table

    def law(self, state: Word) -> list[tuple[Word, Fraction]]:
        """Ordered (target, probability) pairs; probabilities sum to 1."""
        f = self.qi
        if f is None:
            return [(state * s, p) for s, p in self.measure]
        model, src = self.model, f.inverse().map(state.letters)
        return [(Word(model, f.map(model.product(src, s.letters))), p) for s, p in self.measure]

    @cached_property
    def jump_bound(self) -> int:
        """Longest jump: the longest word of the measure without a QI, else
        the longest over the states of the radius-3 ball, measured once per
        kernel (it rebuilds the law at every state of the ball)."""
        if self.qi is None:
            return max(len(s) for s, _ in self.measure)
        best = 0
        for st in ball(self.model, self.model.identity(), 3):
            best = max([best, *distance_row(self.model, st, [tgt for tgt, _ in self.law(st)])])
        return best


def make_invariant(model: GroupModel, weights: dict[Word, Fraction]) -> Kernel:
    items = sorted(weights.items(), key=lambda kv: kv[0].sort_key())
    return Kernel(model, tuple(items))


def srw(model: GroupModel, stay: Fraction = Fraction(0)) -> Kernel:
    """Simple random walk, uniform on generators and inverses; optional
    laziness, the chance of staying put, in [0, 1)."""
    if not 0 <= stay < 1:
        raise ChainError(f"laziness must lie in [0, 1), got {stay}")
    gens = [Word(model, s) for s in neighbours(model, ())]  # the identity's neighbours
    move = (1 - stay) / len(gens)
    weights = {s: move for s in gens}
    if stay:
        weights[model.identity()] = stay
    return make_invariant(model, weights)


def push_forward(kernel: Kernel, qi: BijectiveQI) -> Kernel:
    """Push a chain through a bijective QI (checked bijective on a window);
    a pushed chain's QI is composed with the new one."""
    if not qi.check_bijective(3):
        raise ChainError("push-forward map is not bijective on the check window")
    if kernel.qi is not None:
        qi = CompositionQI(kernel.model, (qi, kernel.qi))
    return replace(kernel, qi=qi)


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True)
class Trajectory:
    """A seeded run of a chain: `path` holds the letters of every state,
    the start first; `states` builds their `Word`s for a caller that reads
    them."""

    seed: int
    index: int
    start: Word
    path: tuple[tuple[int, ...], ...]

    @property
    def states(self) -> tuple[Word, ...]:
        model = self.start.model
        return tuple(Word(model, ls) for ls in self.path)

    def __len__(self) -> int:
        return len(self.path) - 1

    def to_json(self) -> str:
        """One JSON line; the states are spelled by `spell_letters`, which
        builds each state's text from the one before it, spelling letters
        again only from the last run the two share."""
        import json

        return json.dumps(
            {
                "seed": self.seed,
                "index": self.index,
                "start": str(self.start),
                "n": len(self),
                "states": spell_letters(self.start.model, self.path),
            }
        )


def _key(seed: int, index: int) -> np.ndarray:
    import numpy as np

    if not (0 <= seed < 2**64 and 0 <= index < 2**64):
        raise ChainError(f"seed and index must lie in [0, 2^64), got {seed} and {index}")
    return np.array([seed, index], dtype=np.uint64)


def trajectory_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based per-trajectory stream: independent of scheduling order."""
    import numpy as np

    return np.random.Generator(np.random.Philox(key=_key(seed, index)))


def _cdf(probs: Iterable[Fraction]) -> np.ndarray:
    """Float CDF of an ordered law; the last entry is exactly 1."""
    import numpy as np

    cum = np.cumsum([float(p) for p in probs])
    cum[-1] = 1.0
    return cum


def _pick(cdf: np.ndarray, us):
    """Inverse-CDF lookup of uniforms in an ordered law (indices into it)."""
    import numpy as np

    return np.minimum(np.searchsorted(cdf, us, side="right"), len(cdf) - 1)


# most letters a walk's row may hold: horizon * J; each takes 8 bytes in the
# drawn block and 8 in the row
HORIZON_CAP = 10**7

_BLOCK_DRAWS = 2**16  # letters in one ensemble block, unless one walk's row is longer


def _push(letters: tuple[int, ...], x: int) -> tuple[int, ...]:
    """A reduced free-group word times one letter of a walk's stream (0
    stays).  `Walk.path` folds a free-group stream through it letter by
    letter, which costs less than the model's product."""
    if not x:
        return letters
    return letters[:-1] if letters and letters[-1] == -x else letters + (x,)


def _multiply(product: Callable, letters: tuple[int, ...], x: int) -> tuple[int, ...]:
    """A normal form times one letter of a walk's stream (0 stays), through
    the model's product: how a walk off free groups folds its stream."""
    return product(letters, (x,)) if x else letters


class Walk:
    """One seeded trajectory of a kernel: the only stepping engine.

    A walk is handed its row, all the steps it will take (`ensemble` draws
    them), and stepping past that horizon raises ChainError.  The row is a
    flat letter stream, J letters a step (the kernel's `step_table`), where
    lazy stays and padding are 0.  `letters` hands the next steps' letters
    to a caller that follows the walk on its own (the experiments'
    trackers); `path` folds them one at a time and keeps every J-th state
    (`simulate`).  On a free group the fold is `_push` and `steps` pushes
    and pops the stream on a letter stack that keeps a 0 at its bottom, so a
    0 letter does nothing; elsewhere both fold through the model's product.
    A push-forward walks by conjugation: the walk runs from f^-1(start) and
    only the states read are mapped by f, which gives the pushed law's own
    path since that law keeps the measure's order and probabilities and f is
    injective.
    """

    def __init__(self, kernel: Kernel, start: Word, row: list[int]):
        self.qi = kernel.qi
        cur = start.letters if self.qi is None else self.qi.inverse().map(start.letters)
        self.row = row
        self.done = 0
        self.width = kernel.step_table.shape[1]
        if isinstance(kernel.model, FreeGroup):
            self.fold, self.stack = _push, [0, *cur]
        else:
            self.fold, self.stack, self.cur = partial(_multiply, kernel.model.product), None, cur

    def letters(self, count: int) -> list[int]:
        """The letters of the next `count` steps, J a step with 0 for stays
        and padding, counted as taken but not applied: the walk's own state
        stays where it was."""
        if count < 0:
            raise ChainError(f"step count must be >= 0, got {count}")
        end, width = self.done + count, self.width
        if end * width > len(self.row):
            raise ChainError(f"step {end} lies past the walk's horizon of {len(self.row) // width}")
        row, self.done = self.row[self.done * width : end * width], end
        return row

    def _unmapped(self) -> tuple[int, ...]:
        """The letters of the walk's state, not mapped by f."""
        return self.cur if self.stack is None else tuple(self.stack[1:])

    def path(self, count: int) -> Iterator[tuple[int, ...]]:
        """The letters of the walk's state and of the states after each of
        the next `count` steps, not mapped by f; the steps are counted as
        taken but not applied."""
        return islice(accumulate(self.letters(count), self.fold, initial=self._unmapped()), 0, None, self.width)

    def steps(self, count: int) -> None:
        """Advance `count` steps."""
        if self.stack is None:
            self.cur = reduce(self.fold, self.letters(count), self.cur)
            return
        stack = self.stack
        push, pop, top = stack.append, stack.pop, stack[-1]
        for x in self.letters(count):
            if x == -top:
                if x:
                    pop()
                    top = stack[-1]
            elif x:
                push(x)
                top = x

    def current(self) -> tuple[int, ...]:
        """The letters of the walk's state, mapped by f."""
        cur = self._unmapped()
        return cur if self.qi is None else self.qi.map(cur)


def ensemble(kernel: Kernel, start: Word, seed: int, indices: Iterable[int], horizon: int) -> Iterator[Walk]:
    """The walks of one seed's trajectories `indices`, each told `horizon`.

    One generator serves them all: re-keying it through the public state
    setter restarts it exactly at `trajectory_rng(seed, i)`'s stream.  The
    walks are drawn in blocks of about `_BLOCK_DRAWS` letters, one row per
    walk, with one inverse-CDF lookup, one fancy index of the kernel's
    `step_table` and one conversion to lists per block, so memory stays at
    one block however many walks there are; each walk gets a flat row of
    horizon * J letters.  A row may hold at most HORIZON_CAP letters, so a
    horizon above HORIZON_CAP // J is refused before anything is drawn.
    """
    import numpy as np

    table = kernel.step_table
    width = table.shape[1]
    if not 0 <= horizon <= HORIZON_CAP // width:
        raise ChainError(f"horizon must lie in [0, {HORIZON_CAP // width}], got {horizon}")
    rng = trajectory_rng(seed)
    fresh = rng.bit_generator.state
    rows = max(1, _BLOCK_DRAWS // max(horizon * width, 1))
    todo = iter(indices)
    while block := list(islice(todo, rows)):
        us = np.empty((len(block), horizon))
        for i, row in zip(block, us):
            fresh["state"]["key"] = _key(seed, i)
            rng.bit_generator.state = fresh
            rng.random(out=row)
        for row in table[_pick(kernel.cdf, us)].reshape(len(block), horizon * width).tolist():
            yield Walk(kernel, start, row)


def simulate(kernel: Kernel, start: Word, n: int, seed: int, indices: Sequence[int] = (0,)) -> list[Trajectory]:
    """Trajectories `indices` of one seed, drawn from one `ensemble`, with
    every state kept as letters: each walk's `path` from f^-1(start), each
    state mapped by `f.map` as `Walk.current` maps it; no `Word` is built."""
    f = kernel.qi
    trajectories = []
    for index, walk in zip(indices, ensemble(kernel, start, seed, indices, n)):
        path = walk.path(n)
        trajectories.append(Trajectory(seed, index, start, tuple(path if f is None else map(f.map, path))))
    return trajectories


# ---------------------------------------------------------------------------
# tameness diagnostics


class ExactLaw:
    """Exact distribution of a chain started at one state, advanced step by step.

    Probabilities are integer weights over one running denominator, keyed by
    normal-form letter tuples; a read builds one `Fraction`, so the step
    itself does no rational arithmetic.  A step goes through a fixed table
    of (increment letters, numerator over the lcm of the measure's
    denominators).  As in `Walk`, a push-forward runs by conjugation, since
    q^t(x, y) = p^t(f^-1 x, f^-1 y): the walk's law runs from f^-1(start), a
    read looks up f^-1 of the state asked for, and the support size and the
    sup are those of the pushed law because f is a bijection.
    """

    def __init__(self, kernel: Kernel, start: Word):
        self.model = kernel.model
        self.qi = kernel.qi
        start_letters = start.letters
        if self.qi is not None:
            self.qi_inv = self.qi.inverse()
            start_letters = self.qi_inv.map(start_letters)
        self.weights: dict[tuple[int, ...], int] = {start_letters: 1}
        self.denom = 1
        self.step_denom = lcm(*(p.denominator for _, p in kernel.measure))
        self.table = [
            (s.letters, p.numerator * (self.step_denom // p.denominator)) for s, p in kernel.measure if p
        ]

    def __len__(self) -> int:
        return len(self.weights)

    def _state(self, letters: tuple[int, ...]) -> Word:
        return Word(self.model, letters if self.qi is None else self.qi.map(letters))

    def step(self, keep: Callable[[Word], bool] | None = None) -> None:
        """Advance one step; targets failing `keep` are dropped."""
        nxt: dict[tuple[int, ...], int] = {}
        get = nxt.get
        product, table = self.model.product, self.table
        for st, wt in self.weights.items():
            for inc, num in table:
                tgt = product(st, inc)
                nxt[tgt] = get(tgt, 0) + wt * num
        self.denom *= self.step_denom
        if keep is not None:
            # each target is a key once, so `keep` runs once per state per step
            nxt = {st: wt for st, wt in nxt.items() if keep(self._state(st))}
        self.weights = nxt

    def prob(self, w: Word) -> Fraction:
        key = w.letters if self.qi is None else self.qi_inv.map(w.letters)
        return Fraction(self.weights.get(key, 0), self.denom)

    def sup(self) -> Fraction:
        return Fraction(max(self.weights.values(), default=0), self.denom)


def fit_log_linear(points: Sequence[tuple[int, float]]) -> tuple[float, float] | None:
    """Least-squares line through (n, log v): (slope, R^2); None below two distinct n."""
    import numpy as np

    if len({n for n, _ in points}) < 2:
        return None
    xs = np.array([n for n, _ in points], dtype=float)
    ys = np.log([v for _, v in points])
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


@dataclass(frozen=True)
class IrreducibilityResult:
    target: Word
    eps: Fraction
    k: int


def check_irreducibility(
    kernel: Kernel, s: Word, k_max: int, base_points: Sequence[Word] | None = None
) -> IrreducibilityResult:
    """Exact k-step probabilities of reaching g*s from sampled base points g."""
    model = kernel.model
    if base_points is None:
        base_points = [model.identity()] + [g for g in model.generators()]
    # probs[k - 1][i]: the k-step probability from base point i to its target
    probs: list[list[Fraction]] = [[] for _ in range(k_max)]
    for g in base_points:
        target = g * s
        law = ExactLaw(kernel, g)
        for row in probs:
            law.step()
            row.append(law.prob(target))
    best: tuple[Fraction, int] | None = None
    for k, row in enumerate(probs, 1):
        worst = min(row, default=None)
        if worst and (best is None or worst > best[0]):
            best = (worst, k)
    if best is None:
        raise ChainError(f"no positive probability of the step {s} within {k_max} steps")
    return IrreducibilityResult(s, best[0], best[1])


@dataclass(frozen=True)
class DecayReport:
    entries: tuple[tuple[int, float, str], ...]  # (n, sup estimate, method)
    rho_head: float | None
    rho_tail: float | None
    rho_hat: float | None
    verdict: str


_DECAY_SUPPORT_CAP = 60000  # states the exact DP of `estimate_nonamenability` may hold


def estimate_nonamenability(kernel: Kernel, n_list: Sequence[int]) -> DecayReport:
    """Exact sup of point probabilities from `ExactLaw`, reported as skipped
    at grid points past the support cap.

    Fits log sup against n on the first and second halves of the grid; the
    verdict is "consistent with nonamenability" when the tail rate stays
    below 0.97 and does not drift upward, which is a fitted proxy for the
    uniform exponential decay required of a tame chain, never a proof.
    """
    import numpy as np

    if not n_list:
        raise ChainError("n_list must be nonempty")
    # one incremental pass, snapshotting the sup at each grid point
    law = ExactLaw(kernel, kernel.model.identity())
    entries: list[tuple[int, float, str]] = []
    step = 0
    for n in sorted(set(n_list)):
        while step < n and len(law) <= _DECAY_SUPPORT_CAP:
            law.step()
            step += 1
        if len(law) > _DECAY_SUPPORT_CAP:
            entries.append((n, float("nan"), "skipped"))
        else:
            entries.append((n, float(law.sup()), "exact-dp"))

    def rate(pairs: list[tuple[int, float]]) -> float | None:
        fitted = fit_log_linear([(n, v) for n, v in pairs if v])
        return float(np.exp(fitted[0])) if fitted else None

    usable = [(n, v) for n, v, m in entries if m != "skipped"]
    half = len(usable) // 2
    rho_head = rate(usable[: half + 1])
    rho_tail = rate(usable[half:])
    rho_hat = rate(usable)
    monotone = all(a[1] >= b[1] for a, b in zip(usable, usable[1:]))
    if rho_tail is None:
        verdict = "inconclusive"
    elif rho_tail >= 0.97 or not monotone:
        verdict = f"inconclusive (tail rate {rho_tail:.3f}; amenable-like trend)"
    else:
        verdict = "consistent with nonamenability"
    return DecayReport(tuple(entries), rho_head, rho_tail, rho_hat, verdict)


# ---------------------------------------------------------------------------
# quasi-homogeneity


@dataclass(frozen=True)
class WitnessReport:
    checked_states: tuple[Word, ...]
    exact: bool


def quasi_homogeneity_witness(kernel: Kernel, p: Word, q: Word) -> tuple[BijectiveQI, WitnessReport]:
    """A bijective QI carrying p to q that pushes the chain to itself.

    A walk uses the left translation by q p^-1; a push-forward through f
    conjugates the translation by f^-1(q) f^-1(p)^-1 through f.
    """
    model = kernel.model
    psi = kernel.qi
    if psi is None:
        phi: BijectiveQI = LeftTranslation(model, q * p.inverse())
    else:
        psi_inv = psi.inverse()
        t = psi_inv.apply(q) * psi_inv.apply(p).inverse()
        phi = CompositionQI(model, (psi, LeftTranslation(model, t), psi_inv))
    if phi.apply(p) != q:
        raise WitnessError("constructed map does not carry p to q")  # pragma: no cover
    pts = ball(model, model.identity(), 2)
    sample_states = pts[:: max(1, len(pts) // 20)][:20]
    exact = True
    for o in sample_states:
        pushed = {}
        for tgt, pr in kernel.law(o):
            img = phi.apply(tgt)
            pushed[img] = pushed.get(img, Fraction(0)) + pr
        if pushed != dict(kernel.law(phi.apply(o))):
            exact = False
    return phi, WitnessReport(tuple(sample_states), exact)


# ---------------------------------------------------------------------------
# reachability


@dataclass(frozen=True)
class ReachResult:
    t: int
    probability: Fraction
    eps0: float
    table: tuple[tuple[int, Fraction], ...]


_REACH_SUPPORT_CAP = 300000  # states the exact DP of `reach_probability` may hold


def reach_probability(kernel: Kernel, p: Word, q: Word) -> ReachResult:
    """Exact best probability of standing at p within 3 d steps, d = d(p, q).

    Dynamic programming from q with dead-state pruning: a state farther
    from p than J times the remaining steps, J the kernel's jump bound, is
    dropped, which keeps the support near min(ball(q, t), ball(p, T - t)).
    J is exact for a walk and measured on a window of states for a
    push-forward (`Kernel.jump_bound`).
    """
    model = kernel.model
    d = word_distance(model, p, q)
    if d > 6:
        raise ChainError("exact reachability DP is limited to d <= 6")
    horizon = max(1, 3 * d)
    jump = kernel.jump_bound
    to_p = distance_from(model, p)
    law = ExactLaw(kernel, q)
    table: list[tuple[int, Fraction]] = [(0, Fraction(1) if d == 0 else Fraction(0))]
    for t in range(1, horizon + 1):
        remaining = horizon - t
        law.step(lambda tgt: to_p(tgt) <= jump * remaining)
        if len(law) > _REACH_SUPPORT_CAP:
            raise ChainError("reachability DP budget exceeded")
        table.append((t, law.prob(p)))
    best_t, best_p = max(table, key=lambda tp: (tp[1], -tp[0]))
    eps0 = float(best_p) ** (1.0 / d) if d > 0 and best_p > 0 else float(best_p > 0 or d == 0)
    return ReachResult(best_t, best_p, eps0, tuple(table))
