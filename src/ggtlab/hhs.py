"""Domain posets with orthogonality, iterative coning, and factored balls.

A skeleton is a finite set of domains with a nesting partial order, a
symmetric orthogonality relation on incomparable pairs, and per-domain
unboundedness flags.  Two skeletons are shipped: a toy skeleton of
(Z^2 * Z) x Z with its region map, and an abstract one whose schedule takes
three rounds.  The coning schedule repeatedly removes the downward closure
of the union of all maximum-size cliques of the orthogonality graph until no
edges remain; each round is recorded.

A region map ties removed domains to coset families of a concrete group
model, so the schedule can be materialized as a coned-off ball (the factored
ball).  Fibre parallelism of two points is probed through the flat-direction
coset slices named by the region map.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from .groups import DirectProduct, FreeProduct, GroupError, GroupModel, Word, ball_letters, distance_row
from .spaces import CosetFamily, FiniteGraphSpace, cone_off


class SkeletonError(ValueError):
    """Invalid skeleton data."""


# ---------------------------------------------------------------------------
# skeletons


@dataclass(frozen=True)
class HHSSkeleton:
    """Validated once, when it is built: a skeleton that exists is sound."""

    domains: tuple[str, ...]
    maximal: str
    nesting: frozenset  # pairs (child, parent), transitively closed
    orth: frozenset  # frozensets {u, v}
    unbounded: frozenset

    def __post_init__(self) -> None:
        dset = set(self.domains)
        if self.maximal not in dset:
            raise SkeletonError("maximal domain not listed")
        for c, p in self.nesting:
            if c not in dset or p not in dset:
                raise SkeletonError(f"nesting pair ({c}, {p}) uses unknown domains")
            if c == p:
                raise SkeletonError("nesting must be strict")
        for d in dset - {self.maximal}:
            if (d, self.maximal) not in self.nesting:
                raise SkeletonError(f"{d} is not nested below the maximal domain")
        if any((self.maximal, d) in self.nesting for d in dset):
            raise SkeletonError("maximal domain nested below another domain")
        for pair in self.orth:
            if len(pair) != 2:
                raise SkeletonError("orthogonality pairs join two distinct domains")
            u, v = sorted(pair)
            if u not in dset or v not in dset:
                raise SkeletonError("orthogonality uses unknown domains")
            if (u, v) in self.nesting or (v, u) in self.nesting:
                raise SkeletonError(f"orthogonal pair {u}, {v} is nesting-comparable")
        if not self.unbounded <= dset:
            raise SkeletonError("unbounded flags reference unknown domains")

    def downward_closure(self, seed: Sequence[str]) -> frozenset:
        out = set(seed)
        changed = True
        while changed:
            changed = False
            for c, p in self.nesting:
                if p in out and c not in out:
                    out.add(c)
                    changed = True
        return frozenset(out)


def make_skeleton(
    domains: Sequence[str],
    maximal: str,
    nesting_pairs: Sequence[tuple[str, str]] = (),
    orth_pairs: Sequence[tuple[str, str]] = (),
    unbounded: Sequence[str] | None = None,
) -> HHSSkeleton:
    """Build a skeleton; nesting under the maximal domain and transitive
    closure are filled in automatically."""
    pairs = set(nesting_pairs)
    for d in domains:
        if d != maximal:
            pairs.add((d, maximal))
    changed = True
    while changed:
        changed = False
        for a, b in list(pairs):
            for c, d in list(pairs):
                if b == c and (a, d) not in pairs and a != d:
                    pairs.add((a, d))
                    changed = True
    return HHSSkeleton(
        tuple(domains),
        maximal,
        frozenset(pairs),
        frozenset(frozenset(p) for p in orth_pairs),
        frozenset(unbounded if unbounded is not None else domains),
    )


# ---------------------------------------------------------------------------
# orthogonality graph and schedules


@dataclass(frozen=True)
class OrthGraph:
    vertices: tuple[str, ...]
    edges: frozenset

    def cliques(self) -> list[tuple[str, ...]]:
        """All maximal cliques, each sorted, isolated vertices included.

        Bron-Kerbosch (1973) with Tomita's pivot (2006): the pivot is the
        vertex of P | X with the most neighbours in P.
        """
        nbrs: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        out: list[tuple[str, ...]] = []

        def expand(r: list[str], p: set[str], x: set[str]) -> None:
            if not p:
                if not x and r:
                    out.append(tuple(sorted(r)))
                return
            pivot = max(sorted(p | x), key=lambda u: len(nbrs[u] & p))
            for v in sorted(p - nbrs[pivot]):
                expand(r + [v], p & nbrs[v], x & nbrs[v])
                p.remove(v)
                x.add(v)

        expand([], set(self.vertices), set())
        return out


def orthogonality_graph(sk: HHSSkeleton, restrict: frozenset | None = None) -> OrthGraph:
    """Edges join orthogonal pairs whose coordinate directions are both
    unbounded; bounded domains stay isolated vertices."""
    doms = tuple(d for d in sk.domains if restrict is None or d in restrict)
    dset = set(doms)
    edges = frozenset(
        pair
        for pair in sk.orth
        if set(pair) <= dset and all(v in sk.unbounded for v in pair)
    )
    return OrthGraph(doms, edges)


@dataclass(frozen=True)
class RoundRecord:
    index: int
    largest_cliques: tuple[tuple[str, ...], ...]
    removed: frozenset
    remaining: frozenset
    remaining_edges: frozenset


@dataclass(frozen=True)
class ConingSchedule:
    skeleton: HHSSkeleton
    rounds: tuple[RoundRecord, ...]
    removed_total: frozenset

    @property
    def termination_round(self) -> int:
        return len(self.rounds)

    def removed_through(self, round_index: int) -> frozenset:
        out: set[str] = set()
        for r in self.rounds[:round_index]:
            out |= r.removed
        return frozenset(out)


def coning_schedule(sk: HHSSkeleton) -> ConingSchedule:
    """Iteratively remove the downward closure of all maximum cliques.

    The clique number strictly decreases each round (every clique of the old
    maximum size met a removed domain), so at most clique-number many rounds
    occur; the final orthogonality graph is edgeless.  The cliques of each
    round are listed once; their largest size is that round's clique number.
    """
    current = frozenset(sk.domains)
    rounds: list[RoundRecord] = []
    og = orthogonality_graph(sk, current)
    omega = prev = 0
    while og.edges:
        cliques = [c for c in og.cliques() if len(c) >= 2]
        top = max(len(c) for c in cliques)
        if prev and top >= prev:
            raise SkeletonError("clique number failed to decrease")  # pragma: no cover
        omega, prev = omega or top, top
        largest = tuple(sorted(c for c in cliques if len(c) == top))
        union = {d for c in largest for d in c}
        removed = sk.downward_closure(sorted(union)) & current
        current = current - removed
        og = orthogonality_graph(sk, current)
        rounds.append(RoundRecord(len(rounds) + 1, largest, removed, current, og.edges))
        if len(rounds) > omega:
            raise SkeletonError("schedule exceeded the clique-number bound")  # pragma: no cover
    return ConingSchedule(sk, tuple(rounds), frozenset(sk.domains) - current)


# ---------------------------------------------------------------------------
# shipped skeletons and region maps


@dataclass(frozen=True)
class Region:
    """A coset family for a removed domain, with optional fibre data."""

    family: CosetFamily
    parallelism_fibers: Callable[[Word, int], list[Word]] | None = None


def product_free_skeleton() -> HHSSkeleton:
    """Toy skeleton of (Z^2 * Z) x Z: flat conjugates and the two line
    families, each orthogonal to the central direction."""
    return make_skeleton(
        domains=("S", "U", "W", "V"),
        maximal="S",
        orth_pairs=(("U", "V"), ("W", "V")),
        unbounded=("S", "U", "W", "V"),
    )


def product_free_regions(model: DirectProduct) -> dict[str, Region]:
    """Region map for (Z^2 * Z) x Z: U = flat slices, W = z-line slices,
    V = central lines.  Parallelism fibres are the flat-direction slices."""
    if not isinstance(model, DirectProduct) or not isinstance(model.left, FreeProduct):
        raise GroupError("region map expects a free-product-by-Z model")
    if len(model.left.factors) != 2:  # the keys strip cosets in its Bass-Serre tree
        raise GroupError("region map expects a two-factor free product by Z")
    left = model.left
    flat = model.left.factors[0]

    def u_key(w: Word):
        ls, k = model.split(w.letters)
        return (left.strip(0, ls), k)

    def w_key(w: Word):
        ls, k = model.split(w.letters)
        return (left.strip(1, ls), k)

    def v_key(w: Word):
        return model.split(w.letters)[0]

    def flat_fiber(x: Word, radius: int) -> list[Word]:
        # the flat factor's letters are the model's first letters, and its
        # normal forms are the model's
        product = model.product
        return [Word(model, product(x.letters, ls)) for ls in ball_letters(flat, flat.identity(), radius)]

    return {
        "U": Region(CosetFamily("flat x central slices", u_key), flat_fiber),
        "W": Region(CosetFamily("z-line slices", w_key)),
        "V": Region(CosetFamily("central lines", v_key)),
    }


def figure_skeleton() -> HHSSkeleton:
    """Abstract example whose schedule passes through three coning rounds.

    The orthogonality graph starts as a 4-clique, a disjoint triangle, a
    disjoint edge and an isolated unbounded vertex; rounds peel them off in
    order of clique size, and the final edgeless graph retains an unbounded
    non-maximal domain."""
    blocks = [("A", "B", "C", "D"), ("E", "F", "G"), ("H", "I")]
    orth = []
    for block in blocks:
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                orth.append((block[i], block[j]))
    return make_skeleton(
        domains=("S", "A", "B", "C", "D", "E", "F", "G", "H", "I", "J"),
        maximal="S",
        orth_pairs=orth,
        unbounded=("S", "A", "B", "C", "D", "E", "F", "G", "H", "I", "J"),
    )


# ---------------------------------------------------------------------------
# factored balls


def factored_ball(
    model: GroupModel,
    radius: int,
    schedule: ConingSchedule,
    round_index: int,
    region_map: dict[str, Region],
) -> FiniteGraphSpace:
    """Ball of the model with the regions of all removed domains coned.

    ``round_index`` counts completed rounds: 0 cones nothing, and the full
    schedule is ``schedule.termination_round``.  Removed domains without a
    region are skipped with a warning.
    """
    removed = schedule.removed_through(round_index)
    families = []
    for d in sorted(removed):
        if d in region_map:
            families.append(region_map[d].family)
        else:
            warnings.warn(f"removed domain {d!r} has no region; skipped")
    return cone_off(model, radius, families)


# ---------------------------------------------------------------------------
# fibre parallelism


@dataclass(frozen=True)
class ParallelismVerdict:
    verdict: str  # "same product region" | "far" | "inconclusive"
    hausdorff_sweep: tuple[tuple[int, int], ...]
    fiber_diameters: tuple[int, int]


def fiber_parallelism_check(
    model: GroupModel,
    factored: FiniteGraphSpace,
    x: Word,
    y: Word,
    bound: int,
    region_map: dict[str, Region],
    sweep: Sequence[int] = (2, 4, 6),
) -> ParallelismVerdict:
    """Probe whether two points sit in a common product region.

    Truncated flat-direction fibres through x and y are compared: bounded
    factored diameter of each fibre plus a Hausdorff distance (in the word
    metric) that stabilizes across the sweep means "same product region";
    strictly growing Hausdorff distance means "far".
    """
    fiber_fn = None
    for region in region_map.values():
        if region.parallelism_fibers is not None:
            fiber_fn = region.parallelism_fibers
            break
    if fiber_fn is None:
        raise GroupError("region map carries no parallelism fibre descriptor")
    if x not in factored or y not in factored:
        raise GroupError("points must lie in the factored ball")
    if x == y:
        return ParallelismVerdict("same product region", (), (0, 0))

    def hausdorff(a: list[Word], b: list[Word]) -> int:
        # one distance row per point of a; its columns are the rows of b
        rows = [distance_row(model, u, b) for u in a]
        return max(max(map(min, rows)), max(map(min, zip(*rows))))

    hs = []
    for r in sweep:
        fx = fiber_fn(x, r)
        fy = fiber_fn(y, r)
        hs.append((r, hausdorff(fx, fy)))

    def fiber_diam(p: Word) -> int:
        # a fibre in one coset of U is a clique only once the ball has coned U
        fibre = [v for v in fiber_fn(p, max(sweep)) if v in factored]
        return max(map(max, factored.distance_matrix(fibre)), default=0)

    dx, dy = fiber_diam(x), fiber_diam(y)
    values = [h for _, h in hs]
    growing = all(b > a for a, b in zip(values, values[1:]))
    stable = len(values) >= 2 and values[-1] == values[-2]
    if stable and dx <= bound and dy <= bound:
        return ParallelismVerdict("same product region", tuple(hs), (dx, dy))
    if growing:
        return ParallelismVerdict("far", tuple(hs), (dx, dy))
    return ParallelismVerdict("inconclusive", tuple(hs), (dx, dy))
