"""Finite-window Morse certificates and incompatibility witnesses.

Morse-ness quantifies over all quasi-geodesics, which is not finitely
checkable, so certificates here are explicitly scoped to a window around the
segment and a grid of quasi-geodesic parameters.  For the (1, 0) cell the
search is exact: all window-confined geodesics between all pairs of segment
vertices are swept by dynamic programming on the geodesic DAG.  Other cells
use a layered reachability relaxation (prefix and suffix feasibility against
the anchor pair), whose value upper-bounds the true windowed detour; when a
reconstructed path validates as a genuine quasi-geodesic attaining the value,
the cell is marked as a found witness.

The window is indexed by integer ids: its vertices' letters, distance rows
and in-window neighbours are lists, and only witnesses become `Word`s.  Each
layer of the relaxation is still built as a set of letter tuples, in the
order the walk meets them, because the trace of a witness takes the first
vertex in that set's order: the same layers as int sets would pick other
witnesses, and through the quasi-geodesic check other statuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .groups import (
    GroupError,
    GroupModel,
    Word,
    ball_letters,
    ball_size,
    diameter,
    distance_row,
    geodesic,
    neighbours,
    word_diameter,
)
from .projections import projection_of_set
from .spaces import OrbitMap


def tree_gauge(lam: float, eps: float) -> int:
    """Reference gauge: on trees, (lam, eps)-quasi-geodesic excursions are
    capped near lam*eps/2, plus slack linear in lam."""
    return int(lam * eps // 2) + int(lam)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class CellResult:
    max_detour: int
    status: str  # "certified-on-window" | "witness-found" | "skipped"
    witness: tuple[Word, ...] | None = None


@dataclass(frozen=True)
class MorseCertificate:
    segment: tuple[Word, ...]
    window: int
    cells: dict

    def to_csv(self) -> str:
        lines = ["lambda,eps,maxDetour,status"]
        for (l, e), v in sorted(self.cells.items()):
            lines.append(f"{l},{e},{v.max_detour},{v.status}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _Window:
    """A certificate's window, indexed by integer ids: `verts[i]` the letters
    of vertex i, in the order the sweep from the first segment vertex meets
    them, `index` their ids, `detour[i]` its distance to the segment, `adj[i]`
    the ids of its in-window neighbours in `neighbours` order, `rows[k][i]`
    its distance from segment vertex k, and `seg[k]` that vertex's id.

    Lists indexed by id carry the sweeps, so a vertex's letters are hashed
    once per layer at most.  The layers of a relaxed cell stay sets of
    letter tuples: the witness its trace picks follows their iteration
    order, which integer sets would change (see `_layers`)."""

    verts: list
    index: dict
    detour: list
    adj: list
    rows: list
    seg: list


_WINDOW_BUDGET = 10_000_000  # n^3 * |B(window)| a certificate may sweep, n the segment vertices


def _window(model: GroupModel, segment: Sequence[Word], window: int) -> _Window:
    """Refuses, before the window ball is built, a segment whose exact cell
    (n^2 vertex pairs, each over n copies of the window ball) would pass
    `_WINDOW_BUDGET`."""
    size = ball_size(model, window)
    if len(segment) ** 3 * size > _WINDOW_BUDGET:
        raise GroupError(f"a segment of {len(segment)} vertices in a window ball of {size} vertices is past the Morse budget")
    pad = ball_letters(model, model.identity(), window)
    product = model.product
    index: dict = {}
    for v in segment:
        for u in pad:
            index.setdefault(product(v.letters, u), len(index))
    verts = list(index)
    rows = [[len(product(inv, c)) for c in verts] for inv in (model.inverse(s.letters) for s in segment)]
    detour = list(map(min, *rows))
    adj = [[index[u] for u in neighbours(model, v) if u in index] for v in verts]
    return _Window(verts, index, detour, adj, rows, [index[s.letters] for s in segment])


def _exact_geodesic_cell(model: GroupModel, window: int, win: _Window) -> CellResult:
    """Max detour over all window-confined geodesics between segment vertices.

    The witness is such a geodesic, from one segment vertex to another."""
    best = 0
    best_path = None
    detour, adj, rows, seg = win.detour, win.adj, win.rows, win.seg
    for ai in range(len(seg)):
        dx, x = rows[ai], seg[ai]
        for bi in range(ai + 1, len(seg)):
            y, dy = seg[bi], rows[bi]
            dxy = dx[y]
            # the geodesic DAG, deepest first; the sort is stable over window order
            order = sorted((v for v in range(len(detour)) if dx[v] + dy[v] == dxy), key=dx.__getitem__, reverse=True)
            # f[v]: max detour on a window-confined geodesic v -> y, whose
            # next vertex is arg[v]; vertices that cannot reach y keep f None
            f: list = [None] * len(detour)
            arg: list = [None] * len(detour)
            for v in order:
                nxt = None
                step = dx[v] + 1
                for u in adj[v]:
                    if f[u] is not None and dx[u] == step and (nxt is None or f[u] > f[nxt]):
                        nxt = u
                if nxt is not None:
                    f[v], arg[v] = max(detour[v], f[nxt]), nxt
                elif v == y:
                    f[v] = detour[v]
            if f[x] is not None and f[x] > best:
                best, best_path = f[x], [x]
                while arg[best_path[-1]] is not None:
                    best_path.append(arg[best_path[-1]])
    status = "witness-found" if best >= window else "certified-on-window"
    witness = None if best_path is None else tuple(Word(model, win.verts[v]) for v in best_path)
    return CellResult(best, status, witness)


def _is_quasi_geodesic(model: GroupModel, path: Sequence[Word], lam: float, eps: float) -> bool:
    for i, p in enumerate(path):
        for gap, d in enumerate(distance_row(model, p, path[i + 1 :]), 1):
            if d > lam * gap + eps or d < gap / lam - eps:
                return False
    return True


def _layers(src: int, dist: list, win: _Window, t_max: int, lam: float, eps: float) -> tuple[list[list], list]:
    """Vertices a walk from src can stand on at each time t < t_max while
    t / lam - eps <= dist <= t, and the first time t <= t_max each is reached
    (-1 if never).

    Each layer is a set of letter tuples, inserted in the order the walk
    meets them from the layer before, and kept as its ids in that set's
    iteration order: `_trace` picks the first vertex in that order, so the
    witness, and through `_is_quasi_geodesic` the cell's status, follows how
    tuple hashes place the vertices.  The last layer, which no trace reads,
    is left out."""
    adj, verts, index = win.adj, win.verts, win.index
    layers = [[src]]
    first = [-1] * len(verts)
    first[src] = 0
    met = [0] * len(verts)  # the last t at which a vertex joined a layer
    for t in range(1, t_max + 1):
        lo = t / lam - eps
        ids = []
        for v in layers[-1]:
            for u in adj[v]:
                if met[u] != t and lo <= dist[u] <= t:
                    met[u] = t
                    ids.append(u)
                    if first[u] < 0:
                        first[u] = t
        if t < t_max:
            layers.append(list(map(index.__getitem__, set(map(verts.__getitem__, ids)))))
    return layers, first


def _relaxed_cell(
    model: GroupModel,
    window: int,
    win: _Window,
    lam: float,
    eps: float,
    anchors: Sequence[tuple[int, int]],
) -> CellResult:
    # in floats first: a huge lam or eps puts a horizon past any int
    horizons = [lam * (win.rows[ai][win.seg[bi]] + eps) for ai, bi in anchors]
    top = max(horizons)
    if top > _STATE_BUDGET or int(top) * len(win.verts) > _STATE_BUDGET:
        return CellResult(0, "skipped", None)
    t_maxes = list(map(int, horizons))
    # layered prefix/suffix feasibility: necessary conditions against the
    # anchors only (a relaxation of the full pair condition).  A source's
    # layers out to a shorter t_max are a prefix of those out to a longer one,
    # so each source is layered once, out to the longest t_max it serves.
    horizon: dict[int, int] = {}
    for (ai, bi), t_max in zip(anchors, t_maxes):
        for i in (ai, bi):
            horizon[i] = max(horizon.get(i, 0), t_max)
    layers = {i: _layers(win.seg[i], win.rows[i], win, t, lam, eps) for i, t in horizon.items()}
    best = 0
    found = None
    for (ai, bi), t_max in zip(anchors, t_maxes):
        (fwd, reach_i), (bwd, reach_j) = layers[ai], layers[bi]
        for v, detour in enumerate(win.detour):
            if detour > best and reach_i[v] >= 0 and reach_j[v] >= 0 and reach_i[v] + reach_j[v] <= t_max:
                best, found = detour, (v, reach_i[v], fwd, reach_j[v], bwd)
    best_path = None
    if found is not None:
        v, steps_i, fwd, steps_j, bwd = found
        path = _trace(v, steps_i, fwd, win.adj) + _trace(v, steps_j, bwd, win.adj)[-2::-1]
        best_path = tuple(Word(model, win.verts[u]) for u in path)
    if best_path is not None and _is_quasi_geodesic(model, best_path, lam, eps):
        status = "witness-found"
    else:
        status = "certified-on-window"
        if best >= window:
            status = "witness-found"  # window-limited: detour reaches the rim
    return CellResult(best, status, best_path)


def _trace(tgt: int, steps: int, layers: list[list], adj: list) -> list:
    """A walk through layers[0], ..., layers[steps - 1] into tgt: at each
    layer, the first vertex (in set order) adjacent to the walk so far."""
    path = [tgt]
    for i in range(steps - 1, -1, -1):
        path.append(next(v for v in layers[i] if path[-1] in adj[v]))
    return path[::-1]


_STATE_BUDGET = 2_000_000  # layer states a relaxed Morse cell may build


def morse_certificate(
    model: GroupModel,
    segment: Sequence[Word],
    grid: Sequence[tuple[float, float]],
    window: int,
) -> MorseCertificate:
    """Window-scoped detour table over a grid of quasi-geodesic parameters."""
    seg = tuple(segment)
    if len(seg) < 2:
        raise GroupError("segment must have at least two vertices")
    if window < 1:
        # a window of 0 holds the segment alone, where no detour is a witness
        raise GroupError(f"the window must be >= 1, got {window}")
    for lam, eps in grid:
        if not (1 <= lam < math.inf and 0 <= eps < math.inf):
            raise GroupError(f"grid cells need 1 <= lambda < inf and 0 <= eps < inf, got ({lam}, {eps})")
    win = _window(model, seg, window)
    cells: dict = {}
    n = len(seg) - 1
    anchors = [(0, n), (0, n // 2), (n // 2, n)] if n >= 2 else [(0, n)]
    for lam, eps in grid:
        if (lam, eps) == (1, 0):
            cells[(lam, eps)] = _exact_geodesic_cell(model, window, win)
        else:
            cells[(lam, eps)] = _relaxed_cell(model, window, win, lam, eps, anchors)
    # detour tables must be monotone in both parameters
    keys = sorted(cells)
    for a in keys:
        for b in keys:
            if a[0] <= b[0] and a[1] <= b[1]:
                if (
                    cells[a].status != "skipped"
                    and cells[b].status != "skipped"
                    and cells[a].max_detour > cells[b].max_detour
                ):
                    raise GroupError(f"non-monotone certificate between {a} and {b}")
    return MorseCertificate(seg, window, cells)


# ---------------------------------------------------------------------------
# incompatibility witnesses


@dataclass(frozen=True)
class IncompatibilityWitness:
    mu: tuple[Word, ...]
    params: tuple[float, float]
    point: Word
    margin: int
    kappa: int


_WITNESS_BUDGET = 4000  # ray-vertex pairs `incompatibility_witness` examines


def incompatibility_witness(
    model: GroupModel,
    beta: Sequence[Word],
    gauge: Callable[[float, float], int],
    kappa: int,
    prefix_bound: int,
) -> IncompatibilityWitness | None:
    """Search for a geodesic detour witnessing incompatibility of the ray.

    Candidates are the two extreme geodesics (corner paths, in flat pieces)
    between every pair of ray vertices within the prefix bound; the witness
    margin is the excess of the detour point's distance to the whole supplied
    ray over the gauge threshold.  Returns the max-margin witness, or None if
    no candidate in the family has positive margin within the budget.
    """
    if kappa < 0 or prefix_bound < 2:
        # below 2 no pair of ray vertices is two apart: the family is empty
        raise GroupError(f"need kappa >= 0 and prefix bound >= 2, got {kappa} and {prefix_bound}")
    if len(beta) <= prefix_bound:
        raise GroupError("ray prefix shorter than the requested bound")
    threshold = gauge(1, 0 + 2 * kappa) + 2 * kappa
    best: IncompatibilityWitness | None = None
    # d(p, beta) per point: the geodesics between ray vertices share most points
    to_beta: dict[tuple[int, ...], int] = {}
    examined = 0
    for i in range(prefix_bound + 1):
        for j in range(i + 2, prefix_bound + 1):
            if examined >= _WITNESS_BUDGET:
                return best
            examined += 1
            for reverse in (False, True):
                mu = geodesic(model, beta[i], beta[j], reverse)
                for p in mu:
                    d = to_beta.get(p.letters)
                    if d is None:
                        d = to_beta[p.letters] = min(distance_row(model, p, beta))
                    margin = d - threshold
                    if margin > 0 and (best is None or margin > best.margin):
                        best = IncompatibilityWitness(mu, (1, 0), p, margin, kappa)
    return best


def diagonal_crossing_ray(model: GroupModel, flat_size: int = 6, tail: int = 12) -> list[Word]:
    """The shipped ray: staircase across a flat to (n, n), then z-powers.

    Requires Z^2 * Z (generators x, y, z); any other model is refused.
    """
    if model.describe() != "Z^2 * Z":
        raise GroupError(f"the crossing ray lives in Z^2 * Z, not in {model.describe()}")
    verts = [model.identity()]
    letters = []
    for k in range(flat_size):
        letters.append(1)
        verts.append(Word(model, model.normalize(tuple(letters))))
        letters.append(2)
        verts.append(Word(model, model.normalize(tuple(letters))))
    for _ in range(tail):
        letters.append(3)
        verts.append(Word(model, model.normalize(tuple(letters))))
    return verts


# ---------------------------------------------------------------------------
# mutual projections


@dataclass(frozen=True)
class MutualProjectionResult:
    diam_first_on_second: tuple[int, int]  # (group diameter, space diameter)
    diam_second_on_first: tuple[int, int]
    stabilized: bool
    same_ray: bool


def mutual_projection_check(
    orbit: OrbitMap, alpha: Sequence[Word], beta: Sequence[Word]
) -> MutualProjectionResult:
    """Diameters of the mutual projections of two ray prefixes.

    Projections use the space metric; both the group diameter and the space
    diameter of each projection set are reported.  In degenerate directions
    (rays whose orbit image is bounded) projections tie across many vertices
    and the group diameter is not meaningful, while the space diameter is.
    Stabilization compares the answer against dropping the last quarter of
    each prefix window.
    """
    model = orbit.group
    ab = projection_of_set(orbit, beta, alpha)  # projection of beta onto alpha
    ba = projection_of_set(orbit, alpha, beta)
    k_a = max(1, 3 * len(alpha) // 4)
    k_b = max(1, 3 * len(beta) // 4)
    ab_short = projection_of_set(orbit, beta[:k_b], alpha)
    ba_short = projection_of_set(orbit, alpha[:k_a], beta)
    stabilized = ab == ab_short and ba == ba_short
    overlap = len(set(alpha) & set(beta))
    same_ray = overlap > min(len(alpha), len(beta)) // 2
    return MutualProjectionResult(
        (word_diameter(model, ab), diameter(ab, orbit.distance_row)),
        (word_diameter(model, ba), diameter(ba, orbit.distance_row)),
        stabilized,
        same_ray,
    )
