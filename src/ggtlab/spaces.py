"""Orbit maps onto the top-level trees, and coned-off finite graphs.

``top_level_orbit(model)`` is the one place that decides which tree a model
acts on: the tree the lab takes as its maximal hyperbolic space.  A free
group acts on its Cayley tree, where d(x0, g x0) = |g|; a two-factor free
product acts on its Bass-Serre tree, where the distance between two coset
vertices counts syllables (Serre, *Trees*); G x Z acts on the tree of G.
Every orbit map comes from it, and its ``OrbitMap.distance(g, h)`` is the
one top-level metric on group elements: the trees are read through group
elements alone, with no type for their points.

The only explicit space is ``FiniteGraphSpace``, a finite graph used for
coned-off balls, which answers ``.distance(x, y)``, its exact graph metric.

Coning is implemented as diameter-1 completion: each coned coset becomes a
clique.  Cliques are stored implicitly (never expanded to edge lists) and the
BFS treats a clique as a unit-cost hop, which gives exactly the metric of the
completed graph.  A ``FiniteGraphSpace`` is given on integer vertex ids: its
neighbour lists and cliques are lists of ids, which `cone_off` takes straight
from the ball's letter tuples, the BFS runs on ids, and vertices appear only
at the API, through one vertex-to-id index built at construction.

numpy loads at first use, inside the four-point estimate (`delta_estimate`),
which counts each quadruple of points once.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence

from .groups import (
    DirectProduct,
    FreeGroup,
    FreeProduct,
    GroupError,
    GroupModel,
    Word,
    ball_letters,
    ball_size,
    neighbours,
    word_diameter,
)


class SpaceError(ValueError):
    """Invalid space query (unknown point, bad precondition, ...)."""


# ---------------------------------------------------------------------------
# Bass-Serre trees


def _bass_serre_distance(model: FreeProduct, i: int, j: int, letters: tuple[int, ...]) -> int:
    """Distance between the vertices e·F_i and w·F_j of the Bass-Serre tree of
    a two-factor free product, w the normal form `letters`.

    With w' = `model.strip`(j, w) of k syllables, the path from e·F_i
    crosses one edge per syllable of w', plus one first when w' does not
    start in F_i.  The syllables are counted, not built.
    """
    runs = model.syllable_factors(letters)
    if runs and runs[-1] == j:
        runs.pop()
    if not runs:
        return int(i != j)
    return len(runs) + (runs[0] != i)


@dataclass
class FiniteGraphSpace:
    """A finite connected graph on integer vertex ids, with implicit cliques
    for coned cosets.

    Vertex i is ``vertices[i]``; ``adjacency[i]`` lists the ids of its
    neighbours, and each clique is a tuple of ids.  Construction refuses an
    id outside 0..len(vertices) - 1 and indexes the vertices once.
    """

    vertices: tuple[Hashable, ...]
    adjacency: Sequence[Sequence[int]]
    cliques: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.vertices)
        if len(self.adjacency) != n:
            raise SpaceError(f"{len(self.adjacency)} neighbour lists for {n} vertices")
        for ids in itertools.chain(self.adjacency, self.cliques):
            for i in ids:
                if type(i) is not int or not 0 <= i < n:
                    raise SpaceError(f"edge or clique endpoint {i!r} is not a vertex id below {n}")
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self._vertex_cliques: list[list[int]] = [[] for _ in self.vertices]
        for ci, ids in enumerate(self.cliques):
            for i in ids:
                self._vertex_cliques[i].append(ci)

    def __contains__(self, v) -> bool:
        return v in self._index

    def __len__(self) -> int:
        return len(self.vertices)

    def _id(self, v) -> int:
        i = self._index.get(v)
        if i is None:
            raise SpaceError(f"point {v!r} not in graph")
        return i

    def _bfs(self, src: int) -> tuple[list[int], list[int]]:
        """Distances by vertex id from the id src (-1 where unreachable), and
        the reached ids in discovery order."""
        nbrs, cliques, vertex_cliques = self.adjacency, self.cliques, self._vertex_cliques
        dist = [-1] * len(nbrs)
        dist[src] = 0
        clique_done = [False] * len(cliques)
        order, frontier, d = [src], [src], 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for u in nbrs[v]:
                    if dist[u] < 0:
                        dist[u] = d
                        nxt.append(u)
                for ci in vertex_cliques[v]:
                    if not clique_done[ci]:
                        clique_done[ci] = True
                        for u in cliques[ci]:
                            if dist[u] < 0:
                                dist[u] = d
                                nxt.append(u)
            order += nxt
            frontier = nxt
        return dist, order

    def distances_from(self, src) -> dict:
        dist, order = self._bfs(self._id(src))
        return {self.vertices[i]: dist[i] for i in order}

    def distance(self, u, v) -> int:
        d = self._bfs(self._id(u))[0][self._id(v)]
        if d < 0:
            raise SpaceError("graph is not connected between the given points")
        return d

    def distance_matrix(self, points: Sequence) -> list[list[int]]:
        """The distances among the points, row i from points[i], by one BFS
        per point; SpaceError when two of them lie in different components."""
        ids = [self._id(p) for p in points]
        rows = [[row[j] for j in ids] for row in (self._bfs(i)[0] for i in ids)]
        if any(-1 in row for row in rows):
            raise SpaceError("graph is not connected between the given points")
        return rows

    def serialize(self) -> str:
        """Adjacency-list text: one line per vertex `id: n1 n2 ...`, with
        cliques expanded to edges and each list in its vertices' repr order
        (small graphs only).  Each vertex is spelled once."""
        total = sum(len(c) * (len(c) - 1) for c in self.cliques)
        if total > 400_000:
            raise SpaceError("graph too large to expand cliques explicitly")
        adj = [set(ns) for ns in self.adjacency]
        for ids in self.cliques:
            for a, b in itertools.combinations(ids, 2):
                adj[a].add(b)
                adj[b].add(a)
        key = [repr(v) for v in self.vertices]
        names = [str(v) for v in self.vertices]
        lines = [
            f"{name}: {' '.join(names[j] for j in sorted(ns, key=key.__getitem__))}" for name, ns in zip(names, adj)
        ]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# orbit maps


@dataclass(frozen=True)
class OrbitMap:
    """The orbit map g -> g x0 of a group onto its top-level tree, the tree
    of the group ``tree``: its Cayley tree when that is a free group, its
    Bass-Serre tree when that is a two-factor free product.

    ``displacement`` maps the letters of g to d_X(x0, g x0), x0 the
    basepoint; it reads the group's own global letters (a free product's
    syllables are counted on them, G x Z drops its central letters), with
    no relabelling.  ``distance_row`` inverts its source once for a whole
    row of distances.  ``is_identity`` holds when the map is the identity of
    a free group onto its own Cayley tree, where projections have closed
    forms in the words.  It is set once, here, so the hot paths that branch
    on it read a field.
    """

    group: GroupModel
    tree: GroupModel
    name: str
    displacement: Callable[[tuple[int, ...]], int]
    is_identity: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "is_identity", isinstance(self.tree, FreeGroup) and self.group is self.tree)

    def distance(self, g: Word, h: Word) -> int:
        """d_X(g x0, h x0), read as the displacement of g^-1 h (the action is
        by isometries): the one top-level metric on group elements."""
        group = self.group
        return self.displacement(group.product(group.inverse(g.letters), h.letters))

    def distance_row(self, g: Word, hs: Iterable[Word]) -> list[int]:
        """[self.distance(g, h) for h in hs], inverting g once (as
        `groups.distance_row` does for the word metric)."""
        group, displacement = self.group, self.displacement
        g_inv, product = group.inverse(g.letters), group.product
        return [displacement(product(g_inv, h.letters)) for h in hs]


def left_component(model: DirectProduct, w: Word) -> Word:
    """The G-component of an element of G x Z."""
    left_letters, _ = model.split(w.letters)
    return Word(model.left, left_letters)


def top_level_orbit(model: GroupModel) -> OrbitMap:
    """The orbit map onto the tree the lab takes as the model's maximal
    hyperbolic space.

    * A free group maps by the identity onto its Cayley tree ("identity");
      the displacement of g is |g|.
    * A two-factor free product maps by g -> g·F0 onto its Bass-Serre tree
      ("coset-F0"); the displacement of g is d(e·F0, g·F0).
    * G x Z drops the central letters, then applies G's map ("proj+<inner>"),
      and G's displacement to the left letters.

    Any other model raises SpaceError.
    """
    if isinstance(model, FreeGroup):
        return OrbitMap(model, model, "identity", len)
    if isinstance(model, FreeProduct) and len(model.factors) == 2:
        return OrbitMap(model, model, "coset-F0", lambda ls: _bass_serre_distance(model, 0, 0, ls))
    if isinstance(model, DirectProduct):
        inner = top_level_orbit(model.left)
        return OrbitMap(
            model, inner.tree, f"proj+{inner.name}", lambda ls: inner.displacement(model._cut(ls)[0])
        )
    raise SpaceError(f"no top-level tree for {model.describe()}: the lab has one for free groups, "
                     "two-factor free products and their products with Z")


# ---------------------------------------------------------------------------
# hyperbolicity estimate


@dataclass(frozen=True)
class DeltaEstimate:
    """The defect, and the quadruples searched: all of them, so `exhaustive`
    always holds (the benchmark's cone-delta job prints both)."""

    value: float
    quadruples: int
    exhaustive: bool


_DEFECT_BLOCK = 2**15  # triples j < k < l per vectorised block


def _exhaustive_defect(D: np.ndarray) -> int:
    """Twice the largest four-point defect over all i < j < k < l, each
    quadruple counted once (Cohen, Coudert and Lancin, *On computing the
    Gromov hyperbolicity*, 2015).

    The triples j < k < l run in lexicographic order, in blocks of at most
    _DEFECT_BLOCK; a block gathers d(k,l), d(j,l) and d(j,k) once, and each
    pivot i reads the block's suffix of triples with j > i.  The pairing
    sums and their total stay below 6 max(D), which picks the dtype; the
    largest sum minus the middle one is 2 max + min - total.
    """
    import numpy as np

    n, top6 = len(D), 6 * int(D.max())
    D = D.astype(np.int16 if top6 < 2**15 else np.int32 if top6 < 2**31 else np.int64)
    pair_k, pair_l = np.triu_indices(n, 1)  # the pairs k < l, by k then l
    first = np.searchsorted(pair_k, np.arange(1, n - 1))  # those with k > j start at first[j]
    count = len(pair_k) - first  # the triples j < k < l of each j
    begin, total = np.cumsum(count) - count, int(count.sum())
    best = 0
    for t in range(0, total, _DEFECT_BLOCK):
        pair = np.arange(t, min(t + _DEFECT_BLOCK, total))  # the triples' ranks, then their pairs
        J = np.searchsorted(begin, pair, "right") - 1
        pair -= begin[J]
        pair += first[J]
        K, L = pair_k[pair], pair_l[pair]
        dkl, djl, djk = D[K, L], D[J, L], D[J, K]
        for i, s in enumerate(np.searchsorted(J, np.arange(J[-1]), "right").tolist()):
            row = D[i]
            s1 = row[J[s:]] + dkl[s:]  # d(i,j) + d(k,l)
            s2 = row[K[s:]] + djl[s:]  # d(i,k) + d(j,l)
            s3 = row[L[s:]] + djk[s:]  # d(i,l) + d(j,k)
            top, low = np.maximum(np.maximum(s1, s2), s3), np.minimum(np.minimum(s1, s2), s3)
            best = max(best, int((2 * top + low - s1 - s2 - s3).max()))
    return best


_DELTA_POINT_LIMIT = 200  # points `delta_estimate` takes: C(200, 4) is about 6.5e7 quadruples


def delta_estimate(space: OrbitMap | FiniteGraphSpace, points: Sequence) -> DeltaEstimate:
    """Largest four-point-condition defect over all quadruples of the points.

    The search is exhaustive, so it takes 4 to _DELTA_POINT_LIMIT points;
    any other count raises SpaceError before a distance is computed.  The
    points are vertices of a finite graph, or group elements measured by an
    orbit map; trees give 0 exactly.
    """
    import numpy as np

    pts = list(points)
    n = len(pts)
    if not 4 <= n <= _DELTA_POINT_LIMIT:
        raise SpaceError(f"delta_estimate needs 4 to {_DELTA_POINT_LIMIT} points, got {n}")
    if isinstance(space, FiniteGraphSpace):
        D = np.array(space.distance_matrix(pts), dtype=np.int64)
    else:
        D = np.zeros((n, n), dtype=np.int64)
        for i in range(n - 1):
            D[i, i + 1 :] = space.distance_row(pts[i], pts[i + 1 :])
        D += D.T
    return DeltaEstimate(_exhaustive_defect(D) / 2.0, math.comb(n, 4), True)


# ---------------------------------------------------------------------------
# coning


@dataclass(frozen=True)
class CosetFamily:
    """A left-invariant family of cosets, given by a class-key function.

    ``class_key(w)`` returns a hashable label of the coset of ``w`` within
    the family (or None when ``w`` belongs to no coset of the family).  Two
    ball elements with equal keys are coned to distance 1.
    """

    label: str
    class_key: Callable[[Word], Hashable]


def cyclic_coset_family(model: GroupModel, root: Word, single_rep: Word | None = None) -> CosetFamily:
    """Cosets h<root>; restricted to the single coset of ``single_rep`` if given.

    The identity is refused as a root: its cosets are single points, which
    no ball can cone."""
    from .projections import coset_rep_key  # local import to avoid a cycle

    if not root.letters:
        raise GroupError(f"cannot cone the cosets of the identity {root}")
    if single_rep is not None:
        target = coset_rep_key(root, single_rep)

        def key_single(w: Word):
            return "in" if coset_rep_key(root, w) == target else None

        return CosetFamily(f"coset {single_rep}<{root}>", key_single)

    def key_all(w: Word):
        return coset_rep_key(root, w)

    return CosetFamily(f"cosets of <{root}>", key_all)


_CONE_BUDGET = 200_000  # ball vertices a coned ball may store, about 660 B each


def cone_off(model: GroupModel, radius: int, families: Iterable[CosetFamily]) -> FiniteGraphSpace:
    """Ball of the group with every coset of the given families made diameter 1.

    A ball past `_CONE_BUDGET` vertices is refused by its `ball_size`, before
    it is built."""
    size = ball_size(model, radius)
    if size > _CONE_BUDGET:
        raise GroupError(f"the radius-{radius} ball of {model.describe()} has {size} vertices, past the cone-off budget")
    letters = ball_letters(model, model.identity(), radius)
    index = {ls: i for i, ls in enumerate(letters)}
    adjacency = [[i for i in map(index.get, neighbours(model, ls)) if i is not None] for ls in letters]
    verts = tuple(Word(model, ls) for ls in letters)
    cliques: list[tuple[int, ...]] = []
    for fam in families:
        classes: dict = {}
        for i, w in enumerate(verts):
            k = fam.class_key(w)
            if k is not None:
                classes.setdefault(k, []).append(i)
        nontrivial = 0
        for members in classes.values():
            if len(members) >= 2:
                cliques.append(tuple(members))
                nontrivial += 1
        if nontrivial == 0:
            warnings.warn(f"coset family {fam.label!r} meets the ball trivially; skipped")
    return FiniteGraphSpace(vertices=verts, adjacency=adjacency, cliques=tuple(cliques))


# ---------------------------------------------------------------------------
# fibre separation


@dataclass(frozen=True)
class SeparationProfile:
    pairs: tuple[tuple[int, int], ...]  # (truncation radius, observed diameter)
    verdict: str  # "bounded" | "growing"
    params: dict


def fibre_separation_profile(
    orbit: OrbitMap,
    x: Word,
    y: Word,
    r: int,
    s: int,
    truncations: Sequence[int],
) -> SeparationProfile:
    """Diameter of N_s(preimage of B_r(x)) ∩ preimage of B_r(y), per truncation.

    x and y are group elements; B_r(x) is the ball about x x0 in the orbit's
    tree, and its preimage the elements g with d_X(g x0, x x0) <= r.  The
    diameter is measured in the group, restricted to the ball of each
    truncation radius.  The verdict is "bounded" when the two largest
    truncations agree, and "growing" otherwise.
    """
    if r < 0 or s < 0:
        raise SpaceError(f"r and s must be >= 0, got {r} and {s}")
    if orbit.distance(x, y) <= 2 * r:
        raise SpaceError("fibre separation requires d_X(x, y) > 2r")
    truncs = sorted(truncations)
    if not truncs:
        raise SpaceError("need at least one truncation radius")
    model, displacement = orbit.group, orbit.displacement
    x_inv, y_inv = model.inverse(x.letters), model.inverse(y.letters)
    big = ball_letters(model, model.identity(), truncs[-1])
    # d_X(g x0, x x0) is the displacement of x^-1 g
    near_x = {ls for ls in big if displacement(model.product(x_inv, ls)) <= r}
    near_y = {ls for ls in big if displacement(model.product(y_inv, ls)) <= r}
    pairs = []
    for R in truncs:
        inside = {ls for ls in big if len(ls) <= R}
        expanded = near_x & inside
        frontier = set(expanded)
        for _ in range(s):
            nxt = {u for v in frontier for u in neighbours(model, v) if u in inside} - expanded
            expanded |= nxt
            frontier = nxt
        inter = [Word(model, ls) for ls in expanded & near_y]
        pairs.append((R, word_diameter(model, inter)))
    verdict = "bounded"
    if len(pairs) >= 2 and pairs[-1][1] != pairs[-2][1]:
        verdict = "growing"
    return SeparationProfile(
        tuple(pairs),
        verdict,
        {"r": r, "s": s, "orbit": orbit.name, "truncations": tuple(truncs)},
    )
