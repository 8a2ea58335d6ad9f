"""Independent brute-force oracles used to pin expected values in tests.

Everything here deliberately avoids the library's fast paths: normal forms
come from rewriting one letter at a time, distances come
from explicit breadth-first searches on explicitly built graphs, ball sizes
from closed-form growth formulas, projections from windowed argmin scans
with a linear-escape certificate, exact chain laws from `Fraction` sums
over each state's own step law, and the free-group SRW drift and the sup
of its point probabilities (lazy or not) from the radial birth-death
recursion.  Searches the library replaced by closed
forms stay here as their oracles: the greedy geodesic, the descent of a
coset's line to its vertex nearest the identity, the padded candidate
search for threshold cosets and the window-doubling projection of a whole
axis.
The windowed Morse certificate keeps its letter-keyed sweep here, every
vertex a tuple key, as the oracle of the id-indexed window.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import accumulate, combinations

import numpy as np

from ggtlab.groups import (
    DirectProduct,
    FreeAbelian,
    FreeGroup,
    FreeProduct,
    GroupModel,
    Word,
    ball,
    distance_row,
    geodesic,
    neighbours,
    word_distance,
)
from ggtlab.projections import Axis, CosetEntry, axis_of, coset_rep_key, project_to_set, projection_of_set


def free_ball_size(rank: int, radius: int) -> int:
    """1 + 2k * ((2k-1)^r - 1) / (2k - 2) for a rank-k free group."""
    if radius == 0:
        return 1
    k2 = 2 * rank
    if rank == 1:
        return 2 * radius + 1
    return 1 + k2 * ((k2 - 1) ** radius - 1) // (k2 - 2)


def abelian2_ball_size(radius: int) -> int:
    """l^1 ball in Z^2: 2r^2 + 2r + 1."""
    return 2 * radius * radius + 2 * radius + 1


def reference_normal_form(model: GroupModel, letters) -> tuple[int, ...]:
    """The normal form of any valid letter sequence, rewritten one letter at
    a time from the model's structure alone: free reduction in a free group,
    exponent sums in Z^n, the central exponent set apart in G x Z, and in a
    free product a stack of syllables, where each letter relabelled to its
    factor's 1..rank merges into the top syllable when both lie in one
    factor (a syllable that cancels is dropped)."""
    if isinstance(model, FreeGroup):
        out: list[int] = []
        for ell in letters:
            if out and out[-1] == -ell:
                out.pop()
            else:
                out.append(ell)
        return tuple(out)
    if isinstance(model, FreeAbelian):
        exps = [0] * (model.rank + 1)
        for ell in letters:
            exps[abs(ell)] += 1 if ell > 0 else -1
        return tuple(i if e > 0 else -i for i, e in enumerate(exps) for _ in range(abs(e)))
    if isinstance(model, DirectProduct):
        c = model.rank
        exp = sum(1 if ell == c else -1 for ell in letters if abs(ell) == c)
        left = reference_normal_form(model.left, [ell for ell in letters if abs(ell) != c])
        return left + (c if exp > 0 else -c,) * abs(exp)
    assert isinstance(model, FreeProduct)
    offsets = list(accumulate((f.rank for f in model.factors), initial=0))
    stack: list[tuple[int, tuple[int, ...]]] = []  # (factor, local letters)
    for ell in letters:
        fi = next(i for i in range(len(model.factors)) if offsets[i] < abs(ell) <= offsets[i + 1])
        local = ell - offsets[fi] if ell > 0 else ell + offsets[fi]
        syllable = (local,)
        if stack and stack[-1][0] == fi:
            syllable = reference_normal_form(model.factors[fi], stack.pop()[1] + syllable)
        if syllable:
            stack.append((fi, syllable))
    return tuple(ell + offsets[fi] if ell > 0 else ell - offsets[fi] for fi, seg in stack for ell in seg)


def naive_ball(model: GroupModel, center: Word, radius: int) -> set[Word]:
    """Plain BFS over the Cayley graph via word multiplication."""
    seen = {center}
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for i in range(1, model.rank + 1):
                for s in (i, -i):
                    u = w * Word(model, (s,))
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
        frontier = nxt
    return seen


def expanded_adjacency(space) -> dict:
    """A finite graph space's adjacency with its cliques expanded to edges,
    each neighbour list in repr order, from its public fields."""
    adj = {v: set(space.base_adjacency.get(v, ())) for v in space.vertices}
    for members in space.cliques:
        for a, b in combinations(members, 2):
            adj[a].add(b)
            adj[b].add(a)
    return {v: sorted(ns, key=repr) for v, ns in adj.items()}


def graph_bfs(adjacency: dict, src):
    """Distances from src over an explicit adjacency dict."""
    dist = {src: 0}
    q = deque([src])
    while q:
        v = q.popleft()
        for u in adjacency[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                q.append(u)
    return dist


def four_point_delta(points, dist) -> float:
    """Largest four-point defect over every quadruple of the points: half
    the gap between the two largest of the three pairing sums."""
    best = 0.0
    for a, b, c, d in combinations(points, 4):
        s = sorted((dist(a, b) + dist(c, d), dist(a, c) + dist(b, d), dist(a, d) + dist(b, c)))
        best = max(best, (s[2] - s[1]) / 2)
    return best


def cayley_graph_adjacency(model: GroupModel, radius: int) -> dict:
    verts = naive_ball(model, model.identity(), radius)
    keys = {w.letters for w in verts}
    adj = {}
    for w in verts:
        ns = []
        for i in range(1, model.rank + 1):
            for s in (i, -i):
                u = w * Word(model, (s,))
                if u.letters in keys:
                    ns.append(u)
        adj[w] = ns
    return adj


def bs_tree_adjacency(model: FreeProduct, radius: int) -> dict:
    """Finite portion of the Bass-Serre tree of a two-factor free product:
    every ball element w spans one edge, between the cosets w·F0 and w·F1,
    each keyed (factor, w without its last syllable when that lies in the
    factor).

    Coset representatives are prefix-closed, so the induced subgraph is
    distance-exact for cosets of elements within the ball.
    """
    adj: dict = {}
    for w in naive_ball(model, model.identity(), radius):
        v0 = (0, model.strip(0, w.letters))
        v1 = (1, model.strip(1, w.letters))
        adj.setdefault(v0, set()).add(v1)
        adj.setdefault(v1, set()).add(v0)
    return {v: sorted(ns) for v, ns in adj.items()}


def scan_axis_projection(model: GroupModel, axis, x: Word) -> tuple[set[Word], int]:
    """Windowed argmin over axis points with a linear-escape certificate.

    Valid on Cayley trees, where d(x, rep * root^n) >= |n| |root| - |rep| - |x|
    guarantees that scanning |n| <= (2 d(x, rep) + |rep| + |x|) / |root| + 2
    sees every minimizer.
    """
    q = max(1, len(axis.root))
    d_rep = word_distance(model, x, axis.rep)
    n_max = (2 * d_rep + len(axis.rep) + len(x)) // q + 2
    best = None
    chosen: set[Word] = set()
    pt = axis.rep * axis.root ** (-n_max)
    step = axis.root
    for n in range(-n_max, n_max + 1):
        d = word_distance(model, x, pt)
        if best is None or d < best:
            best, chosen = d, {pt}
        elif d == best:
            chosen.add(pt)
        pt = pt * step
    return chosen, best


def greedy_geodesic(model: GroupModel, g: Word, h: Word, reverse: bool = False) -> list[Word]:
    """A geodesic from g to h: each step goes to the first neighbour in
    `neighbours` order (the last one with ``reverse``) that is closer to h."""
    path = [g.letters]
    for remaining in range(word_distance(model, g, h) - 1, -1, -1):
        steps = neighbours(model, path[-1])
        path.append(next(v for v in (reversed(steps) if reverse else steps)
                         if word_distance(model, Word(model, v), h) == remaining))
    return [Word(model, ls) for ls in path]


def line_vertex(model: GroupModel, start: Word, u: tuple[int, ...], t: int) -> Word:
    """start times the first t letters of u u u ..., or for t < 0 of
    u^-1 u^-1 ..., freely reduced."""
    spelled = [u[i % len(u)] for i in range(t)] if t >= 0 else [-u[(-1 - i) % len(u)] for i in range(-t)]
    return Word(model, model.normalize(start.letters + tuple(spelled)))


def descended_line(axis) -> tuple[Word, tuple[int, ...], int]:
    """(anchor, direction, phase) of an axis' line on a Cayley tree, found
    by walking the line from rep one vertex at a time while it gets shorter;
    the direction is the smaller of the root read forwards and backwards from
    there, and the coset points sit at positions ≡ phase (mod |root|)."""
    model, r = axis.model, axis.root.letters
    q = len(r)
    step = 1 if len(line_vertex(model, axis.rep, r, 1)) < len(axis.rep) else -1
    t0 = 0
    while len(line_vertex(model, axis.rep, r, t0 + step)) < len(line_vertex(model, axis.rep, r, t0)):
        t0 += step
    anchor = line_vertex(model, axis.rep, r, t0)
    dir_plus = tuple(r[(t0 + i) % q] for i in range(q))
    dir_minus = tuple(-r[(t0 - 1 - i) % q] for i in range(q))
    if model.sort_key(dir_plus) <= model.sort_key(dir_minus):
        return anchor, dir_plus, (-t0) % q
    return anchor, dir_minus, t0 % q


def padded_coset_entries(orbit, g: Word, o: Word, p: Word, threshold: int) -> list[CosetEntry]:
    """Threshold cosets among the candidates coset_rep_key(root, v u), v a
    vertex of the geodesic [o, p] and u in the radius-(q//2 + 1) ball, q the
    root length, each valued by the projections of o and p and placed at the
    geodesic vertex nearest o's first projection point, found by a scan."""
    root = axis_of(g).root
    model = orbit.group
    geo = geodesic(model, o, p)
    pad = ball(model, model.identity(), len(root) // 2 + 1)
    entries = []
    for key in dict.fromkeys(coset_rep_key(root, v * u) for v in geo for u in pad):
        ax = Axis(model, root, Word(model, key))
        po, pp = project_to_set(orbit, o, ax).points, project_to_set(orbit, p, ax).points
        value = max((orbit.distance(u, v) for u, v in combinations(set(po) | set(pp), 2)), default=0)
        if value >= threshold:
            dists = [orbit.distance(po[0], v) for v in geo]
            entries.append(CosetEntry(ax, value, dists.index(min(dists)), po, pp))
    entries.sort(key=lambda e: (e.position, e.axis.rep.sort_key()))
    return entries


def window_axis_projection(orbit, src, target, cap: int):
    """Projection of the whole axis src onto target: the projections of its
    points out to window 8, 16, ..., taken once two successive windows agree;
    None when none agree up to window `cap`."""
    prev, window = None, 8
    while window <= cap:
        cur = projection_of_set(orbit, src.points(window), target)
        if cur == prev:
            return cur
        prev, window = cur, 2 * window
    return None


def fraction_step(kernel, dist: dict, keep=None) -> dict:
    """One exact step of a `{Word: Fraction}` law through `kernel.law` at
    every state; targets failing `keep` are dropped."""
    nxt: dict = {}
    for st, pr in dist.items():
        for tgt, p in kernel.law(st):
            if p and (keep is None or keep(tgt)):
                nxt[tgt] = nxt.get(tgt, Fraction(0)) + pr * p
    return nxt


def drift_oracle_free_srw(n: int, rank: int = 2) -> float:
    """Exact expected distance-to-start rate of the SRW on a free group.

    Radial birth-death dynamic programming: from radius r >= 1 the walk
    moves out with probability (2k-1)/2k and in with probability 1/2k.
    """
    deg = 2 * rank
    up, down = (deg - 1) / deg, 1 / deg
    probs = np.zeros(n + 1)
    probs[0] = 1.0
    for _ in range(n):
        nxt = np.zeros_like(probs)
        nxt[1] += probs[0]
        nxt[2:] += probs[1:-1] * up
        nxt[0:-2] += probs[1:-1] * down
        nxt[-1] += probs[-1]  # absorbing guard; never reached for steps < n
        probs = nxt
    return float(np.dot(probs, np.arange(n + 1))) / n


def radial_sup(rank: int, n: int, stay: Fraction = Fraction(0)) -> Fraction:
    """Exact sup_h P[w_n = h] for the SRW on F_rank that stays put with
    probability `stay`.

    Radial birth-death recursion on |w_n|: from radius 0 the walk moves out
    with probability 1 - stay, from radius r >= 1 out with (1 - stay)(2k-1)/2k
    and in with (1 - stay)/2k.  The law is uniform on each sphere, of
    2k (2k-1)^(r-1) points, so the sup is the largest sphere mass over its
    size.  It needs no law on group elements, so n can be large.
    """
    deg = 2 * rank
    move = 1 - stay
    up, down = move * Fraction(deg - 1, deg), move * Fraction(1, deg)
    probs = {0: Fraction(1)}
    for _ in range(n):
        nxt: dict[int, Fraction] = {}
        for r, p in probs.items():
            for r2, q in ((r, stay), (r + 1, move if r == 0 else up), (r - 1, 0 if r == 0 else down)):
                if q:
                    nxt[r2] = nxt.get(r2, Fraction(0)) + p * q
        probs = nxt
    return max(p / (1 if r == 0 else deg * (deg - 1) ** (r - 1)) for r, p in probs.items())


def reference_morse_certificate(model: GroupModel, segment, grid, window: int) -> dict:
    """The cells of a windowed Morse certificate from a window keyed by
    letter tuples: per grid cell, (max detour, status, witness letters or
    None).  The sweep, the geodesic DAG of the exact cell, the layered
    relaxation and its trace are the letter-keyed ones the certificate
    used before its window was indexed by integers; budgets and the
    monotonicity check are left out."""
    segment = tuple(segment)
    pad = ball(model, model.identity(), window)
    product = model.product
    inverses = [model.inverse(s.letters) for s in segment]
    rows: list[dict] = [{} for _ in segment]
    for v in segment:
        for u in pad:
            cand = product(v.letters, u.letters)
            if cand not in rows[0]:
                for row, inv in zip(rows, inverses):
                    row[cand] = len(product(inv, cand))
    detour = {v: min(row[v] for row in rows) for v in rows[0]}
    adj = {v: [u for u in neighbours(model, v) if u in detour] for v in detour}

    def exact_cell():
        best = 0
        best_path = None
        for ai in range(len(segment)):
            dx, x = rows[ai], segment[ai].letters
            for bi in range(ai + 1, len(segment)):
                y, dy = segment[bi].letters, rows[bi]
                dxy = dx[y]
                dag = {v: dx[v] for v in detour if dx[v] + dy[v] == dxy}
                order = sorted(dag, key=dag.get, reverse=True)
                f, arg = {}, {}
                for v in order:
                    nxt = None
                    for u in adj[v]:
                        if u in f and dag[u] == dag[v] + 1 and (nxt is None or f[u] > f[nxt]):
                            nxt = u
                    if nxt is not None:
                        f[v], arg[v] = max(detour[v], f[nxt]), nxt
                    elif v == y:
                        f[v], arg[v] = detour[v], None
                if x in f and f[x] > best:
                    best, best_path = f[x], [x]
                    while arg[best_path[-1]] is not None:
                        best_path.append(arg[best_path[-1]])
        status = "witness-found" if best >= window else "certified-on-window"
        return best, status, None if best_path is None else tuple(best_path)

    def layers_from(src, dist, t_max, lam, eps):
        layers = [{src}]
        first = {src: 0}
        for t in range(1, t_max + 1):
            lo = t / lam - eps
            layer = {u for v in layers[-1] for u in adj[v] if lo <= dist[u] <= t}
            for v in layer:
                first.setdefault(v, t)
            layers.append(layer)
        return layers, first

    def trace(tgt, steps, layers):
        path = [tgt]
        for i in range(steps - 1, -1, -1):
            path.append(next(v for v in layers[i] if path[-1] in adj[v]))
        return path[::-1]

    def is_quasi_geodesic(path, lam, eps):
        for i, p in enumerate(path):
            for gap, d in enumerate(distance_row(model, p, path[i + 1 :]), 1):
                if d > lam * gap + eps or d < gap / lam - eps:
                    return False
        return True

    def relaxed_cell(lam, eps, anchors):
        t_maxes = [int(lam * (rows[ai][segment[bi].letters] + eps)) for ai, bi in anchors]
        horizon: dict[int, int] = {}
        for (ai, bi), t_max in zip(anchors, t_maxes):
            for i in (ai, bi):
                horizon[i] = max(horizon.get(i, 0), t_max)
        layers = {i: layers_from(segment[i].letters, rows[i], t, lam, eps) for i, t in horizon.items()}
        best = 0
        best_path = None
        for (ai, bi), t_max in zip(anchors, t_maxes):
            (fwd, reach_i), (bwd, reach_j) = layers[ai], layers[bi]
            for v, d in detour.items():
                if d > best and v in reach_i and v in reach_j and reach_i[v] + reach_j[v] <= t_max:
                    best = d
                    path = trace(v, reach_i[v], fwd) + trace(v, reach_j[v], bwd)[-2::-1]
                    best_path = tuple(Word(model, u) for u in path)
        if best_path is not None and is_quasi_geodesic(best_path, lam, eps):
            status = "witness-found"
        else:
            status = "certified-on-window"
            if best >= window:
                status = "witness-found"
        return best, status, None if best_path is None else tuple(u.letters for u in best_path)

    n = len(segment) - 1
    anchors = [(0, n), (0, n // 2), (n // 2, n)] if n >= 2 else [(0, n)]
    return {
        (lam, eps): exact_cell() if (lam, eps) == (1, 0) else relaxed_cell(lam, eps, anchors)
        for lam, eps in grid
    }
