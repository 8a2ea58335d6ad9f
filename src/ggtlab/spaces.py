"""Hyperbolic-space models with basepoints and orbit maps.

Three space kinds are shipped:

* ``CayleyTree``: the Cayley graph of a free group (a tree), with exact
  distances computed from reduced words;
* ``BassSerreTree``: the bipartite coset tree of a two-factor free product,
  with exact distances counted from syllables;
* ``FiniteGraphSpace``: an explicit finite graph, used for coned-off balls.

Coning is implemented as diameter-1 completion: each coned coset becomes a
clique.  Cliques are stored implicitly (never expanded to edge lists) and the
BFS treats a clique as a unit-cost hop, which gives exactly the metric of the
completed graph.
"""

from __future__ import annotations

import itertools
import warnings
from functools import partial
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .groups import (
    DirectProduct,
    FreeGroup,
    FreeProduct,
    GroupError,
    GroupModel,
    Word,
    ball,
    diameter,
    neighbours,
    word_distance,
)


class SpaceError(ValueError):
    """Invalid space query (unknown point, bad precondition, ...)."""


# ---------------------------------------------------------------------------
# space models


@dataclass(frozen=True)
class CayleyTree:
    """Cayley graph of a free group; points are Words of the model."""

    model: FreeGroup

    def __post_init__(self):
        if not isinstance(self.model, FreeGroup):
            raise SpaceError("CayleyTree requires a free group model")

    @property
    def basepoint(self) -> Word:
        return self.model.identity()


@dataclass(frozen=True)
class BSVertex:
    """A vertex of a Bass-Serre tree: the coset rep·F_{factor}."""

    factor: int
    rep: Word

    def __str__(self) -> str:
        return f"{self.rep}·F{self.factor}"


@dataclass(frozen=True)
class BassSerreTree:
    """Coset tree of a two-factor free product A * B.

    Vertices are cosets gA and gB; g and g' span an edge between gA and g'B
    exactly when the cosets intersect.  Coset representatives are canonical:
    any trailing syllable lying in the coset's own factor is stripped.
    """

    model: FreeProduct

    def __post_init__(self):
        if not isinstance(self.model, FreeProduct) or len(self.model.factors) != 2:
            raise SpaceError("BassSerreTree requires a two-factor free product")

    @property
    def basepoint(self) -> BSVertex:
        return self.vertex(0, self.model.identity())

    def strip(self, factor: int, w: Word) -> Word:
        """w without its last syllable when that syllable lies in F_factor."""
        letters, factor_of = w.letters, self.model._factor_of
        i = len(letters)
        while i and factor_of[letters[i - 1]] == factor:
            i -= 1
        return Word(self.model, letters[:i])

    def vertex(self, factor: int, w: Word) -> BSVertex:
        if factor not in (0, 1):
            raise SpaceError("factor index must be 0 or 1")
        return BSVertex(factor, self.strip(factor, w))

    def _dist_from_root(self, i: int, j: int, w: Word) -> int:
        """Distance between the vertex e·F_i and the vertex w·F_j.

        With w' = strip(j, w) of k syllables, the path from e·F_i crosses one
        edge per syllable of w', plus one first when w' does not start in F_i.
        """
        runs = self.model.syllables(self.strip(j, w).letters)
        if not runs:
            return int(i != j)
        return len(runs) + (runs[0][0] != i)

    def distance(self, v1: BSVertex, v2: BSVertex) -> int:
        w = v1.rep.inverse() * v2.rep
        return self._dist_from_root(v1.factor, v2.factor, w)

    def translate(self, g: Word, v: BSVertex) -> BSVertex:
        return self.vertex(v.factor, g * v.rep)


@dataclass
class FiniteGraphSpace:
    """A finite connected graph with implicit cliques for coned cosets."""

    vertices: tuple[Hashable, ...]
    base_adjacency: dict
    cliques: tuple[tuple[Hashable, ...], ...] = ()
    basepoint: Hashable = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if self.basepoint is None and self.vertices:
            self.basepoint = self.vertices[0]
        self._vertex_cliques: dict = {v: [] for v in self.vertices}
        for ci, members in enumerate(self.cliques):
            for v in members:
                self._vertex_cliques[v].append(ci)
        self._dist_cache: dict = {}

    def __contains__(self, v) -> bool:
        return v in self._index

    def __len__(self) -> int:
        return len(self.vertices)

    def distances_from(self, src) -> dict:
        if src not in self._index:
            raise SpaceError(f"point {src!r} not in graph")
        cached = self._dist_cache.get(src)
        if cached is not None:
            return cached
        dist = {src: 0}
        clique_done = [False] * len(self.cliques)
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for u in self.base_adjacency.get(v, ()):
                    if u not in dist:
                        dist[u] = d
                        nxt.append(u)
                for ci in self._vertex_cliques[v]:
                    if not clique_done[ci]:
                        clique_done[ci] = True
                        for u in self.cliques[ci]:
                            if u not in dist:
                                dist[u] = d
                                nxt.append(u)
            frontier = nxt
        if len(self._dist_cache) < 64:
            self._dist_cache[src] = dist
        return dist

    def distance(self, u, v) -> int:
        if v not in self._index:
            raise SpaceError(f"point {v!r} not in graph")
        d = self.distances_from(u).get(v)
        if d is None:
            raise SpaceError("graph is not connected between the given points")
        return d

    def expanded_adjacency(self) -> dict:
        """Adjacency with cliques expanded to edges (small graphs only)."""
        total = sum(len(c) * (len(c) - 1) for c in self.cliques)
        if total > 400_000:
            raise SpaceError("graph too large to expand cliques explicitly")
        adj = {v: set(self.base_adjacency.get(v, ())) for v in self.vertices}
        for members in self.cliques:
            for a, b in itertools.combinations(members, 2):
                adj[a].add(b)
                adj[b].add(a)
        return {v: tuple(sorted(ns, key=repr)) for v, ns in adj.items()}

    def serialize(self, labeller: Callable[[Hashable], str] = str) -> str:
        """Adjacency-list text: one line per vertex `id: n1 n2 ...`."""
        adj = self.expanded_adjacency()
        lines = []
        for v in self.vertices:
            ns = " ".join(labeller(u) for u in adj[v])
            lines.append(f"{labeller(v)}: {ns}")
        return "\n".join(lines) + "\n"


SpaceModel = CayleyTree | BassSerreTree | FiniteGraphSpace


def space_distance(space: SpaceModel, x, y) -> int:
    """Exact graph distance between two points of a space model."""
    if isinstance(space, CayleyTree):
        return word_distance(space.model, x, y)
    if isinstance(space, BassSerreTree):
        return space.distance(x, y)
    if isinstance(space, FiniteGraphSpace):
        return space.distance(x, y)
    raise SpaceError(f"unknown space model {space!r}")


# ---------------------------------------------------------------------------
# orbit maps


@dataclass(frozen=True)
class OrbitMap:
    """A rule g -> point of X; by convention rule(e) is the basepoint."""

    group: GroupModel
    space: SpaceModel
    rule: Callable[[Word], Hashable]
    name: str = "orbit"

    def __call__(self, w: Word) -> Hashable:
        return self.rule(w)

    def measured_lipschitz(self, radius: int = 3) -> int:
        """Max displacement of a single generator step within a ball."""
        best = 0
        for w in ball(self.group, self.group.identity(), radius):
            pw = self.rule(w)
            for u in neighbours(self.group, w):
                best = max(best, space_distance(self.space, pw, self.rule(u)))
        return best


def identity_orbit(tree: CayleyTree) -> OrbitMap:
    return OrbitMap(tree.model, tree, lambda w: w, name="identity")


def bass_serre_orbit(tree: BassSerreTree, factor: int = 0) -> OrbitMap:
    return OrbitMap(tree.model, tree, lambda w: tree.vertex(factor, w), name=f"coset-F{factor}")


def left_component(model: DirectProduct, w: Word) -> Word:
    """The G-component of an element of G x Z."""
    left_letters, _ = model.split(w.letters)
    return Word(model.left, left_letters)


def first_factor_orbit(model: DirectProduct, inner: OrbitMap) -> OrbitMap:
    """Project G x Z onto G and apply an orbit map of G."""
    if inner.group != model.left:
        raise SpaceError("inner orbit map must live on the left factor")
    return OrbitMap(
        model, inner.space, lambda w: inner.rule(left_component(model, w)), name=f"proj+{inner.name}"
    )


# ---------------------------------------------------------------------------
# hyperbolicity estimate


@dataclass(frozen=True)
class DeltaEstimate:
    value: float
    quadruples: int
    exhaustive: bool


def _four_point_defect(d_ij, d_kl, d_ik, d_jl, d_il, d_jk) -> float:
    s = sorted((d_ij + d_kl, d_ik + d_jl, d_il + d_jk))
    return (s[2] - s[1]) / 2.0


def delta_estimate(
    space: SpaceModel,
    points: Sequence,
    seed: int | None = None,
    exhaustive_limit: int = 200,
    samples: int = 20000,
) -> DeltaEstimate:
    """Largest four-point-condition defect over quadruples of the sample set.

    Exhaustive for at most ``exhaustive_limit`` points, otherwise a seeded
    random sample of quadruples is used.  Trees give 0 exactly.
    """
    pts = list(points)
    n = len(pts)
    if n < 4:
        raise SpaceError("delta_estimate needs at least 4 points")
    D = np.zeros((n, n), dtype=np.int64)
    if isinstance(space, FiniteGraphSpace):
        for i, p in enumerate(pts):
            dmap = space.distances_from(p)
            for j, q in enumerate(pts):
                D[i, j] = dmap[q]
    else:
        for i in range(n):
            for j in range(i + 1, n):
                D[i, j] = D[j, i] = space_distance(space, pts[i], pts[j])
    if n <= exhaustive_limit:
        best = 0.0
        count = 0
        for i in range(n):
            for j in range(i + 1, n):
                sub = np.arange(j + 1, n)
                if len(sub) < 2:
                    continue
                # vectorize over the (k, l) pairs with j < k < l
                s1 = D[i, j] + D[np.ix_(sub, sub)]
                s2 = D[i, sub][:, None] + D[sub, j][None, :]
                s3 = D[i, sub][None, :] + D[sub, j][:, None]
                stacked = np.stack([s1, s2, s3])
                stacked.sort(axis=0)
                defects = (stacked[2] - stacked[1]) / 2.0
                iu = np.triu_indices(len(sub), k=1)
                if iu[0].size:
                    best = max(best, float(defects[iu].max()))
                    count += iu[0].size
        return DeltaEstimate(best, count, True)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        i, j, k, l = rng.choice(n, size=4, replace=False)
        best = max(best, _four_point_defect(D[i, j], D[k, l], D[i, k], D[j, l], D[i, l], D[j, k]))
    return DeltaEstimate(best, samples, False)


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
    enumerate_class: Callable[[Word, int], list[Word]] | None = None


def cyclic_coset_family(model: GroupModel, root: Word, single_rep: Word | None = None) -> CosetFamily:
    """Cosets h<root>; restricted to the single coset of ``single_rep`` if given."""
    from .projections import coset_rep_key  # local import to avoid a cycle

    if single_rep is not None:
        target = coset_rep_key(model, root, single_rep)

        def key_single(w: Word):
            return "in" if coset_rep_key(model, root, w) == target else None

        return CosetFamily(f"coset {single_rep}<{root}>", key_single)

    def key_all(w: Word):
        return coset_rep_key(model, root, w)

    return CosetFamily(f"cosets of <{root}>", key_all)


def cone_off(
    model: GroupModel,
    radius: int,
    families: Iterable[CosetFamily],
    cap: int = 10,
    basepoint: Word | None = None,
) -> FiniteGraphSpace:
    """Ball of the group with every coset of the given families made diameter 1."""
    verts = ball(model, model.identity(), radius, cap=cap)
    vset = {w.letters for w in verts}
    adj = {w: [u for u in neighbours(model, w) if u.letters in vset] for w in verts}
    cliques: list[tuple[Word, ...]] = []
    labels = []
    for fam in families:
        classes: dict = {}
        for w in verts:
            k = fam.class_key(w)
            if k is not None:
                classes.setdefault(k, []).append(w)
        nontrivial = 0
        for members in classes.values():
            if len(members) >= 2:
                cliques.append(tuple(members))
                nontrivial += 1
        if nontrivial == 0:
            warnings.warn(f"coset family {fam.label!r} meets the ball trivially; skipped")
        labels.append(fam.label)
    return FiniteGraphSpace(
        vertices=tuple(verts),
        base_adjacency=adj,
        cliques=tuple(cliques),
        basepoint=basepoint or model.identity(),
        metadata={
            "radius": radius,
            "coned_families": tuple(labels),
            "coning": "diameter-1 completion",
        },
    )


# ---------------------------------------------------------------------------
# fibre separation


@dataclass(frozen=True)
class SeparationProfile:
    pairs: tuple[tuple[int, int], ...]  # (truncation radius, observed diameter)
    verdict: str  # "bounded" | "growing"
    params: dict

    def diameters(self) -> list[int]:
        return [d for _, d in self.pairs]


def fibre_separation_profile(
    orbit: OrbitMap,
    x,
    y,
    r: int,
    s: int,
    truncations: Sequence[int],
    cap: int = 12,
) -> SeparationProfile:
    """Diameter of N_s(preimage of B_r(x)) ∩ preimage of B_r(y), per truncation.

    The diameter is measured in the group, restricted to the ball of each
    truncation radius.  The verdict is "bounded" when the two largest
    truncations agree, and "growing" otherwise.
    """
    if space_distance(orbit.space, x, y) <= 2 * r:
        raise SpaceError("fibre separation requires d_X(x, y) > 2r")
    truncs = sorted(truncations)
    if not truncs:
        raise SpaceError("need at least one truncation radius")
    model = orbit.group
    big = ball(model, model.identity(), truncs[-1], cap=max(cap, truncs[-1]))
    images = {w: orbit(w) for w in big}
    pairs = []
    for R in truncs:
        inside = [w for w in big if len(w) <= R]
        inset = {w.letters for w in inside}
        s1 = {w for w in inside if space_distance(orbit.space, images[w], x) <= r}
        expanded = set(s1)
        frontier = set(s1)
        for _ in range(s):
            nxt = {u for v in frontier for u in neighbours(model, v) if u.letters in inset} - expanded
            expanded |= nxt
            frontier = nxt
        inter = [w for w in expanded if space_distance(orbit.space, images[w], y) <= r]
        pairs.append((R, diameter(inter, partial(word_distance, model))))
    verdict = "bounded"
    if len(pairs) >= 2 and pairs[-1][1] != pairs[-2][1]:
        verdict = "growing"
    return SeparationProfile(
        tuple(pairs),
        verdict,
        {"r": r, "s": s, "orbit": orbit.name, "truncations": tuple(truncs)},
    )
