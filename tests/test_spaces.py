"""Tree distances, hyperbolicity defects, coning, and fibre separation."""

import itertools
import math
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggtlab import spaces
from ggtlab.groups import Word, ball, model_from_descriptor, neighbours, normal_form, word_distance
from ggtlab.spaces import (
    FiniteGraphSpace,
    SpaceError,
    cone_off,
    cyclic_coset_family,
    delta_estimate,
    fibre_separation_profile,
    left_component,
    top_level_orbit,
)

from conftest import w
from oracles import bs_tree_adjacency, cayley_graph_adjacency, expanded_adjacency, four_point_delta, graph_bfs


# --- distances -------------------------------------------------------------


def test_cayley_tree_distance(f2, f2_tree):
    assert f2_tree.distance(f2.identity(), w(f2, "a b")) == 2


def test_bass_serre_examples(z2z, bs_tree):
    va = bs_tree.vertex(0, z2z.identity())
    assert bs_tree.distance(va, bs_tree.vertex(0, w(z2z, "z"))) == 2
    assert bs_tree.distance(va, bs_tree.vertex(0, w(z2z, "x"))) == 0
    assert bs_tree.distance(va, bs_tree.vertex(1, z2z.identity())) == 1
    assert bs_tree.distance(va, bs_tree.vertex(1, w(z2z, "x"))) == 1


def test_strip_matches_syllable_definition(z2z, bs_tree):
    # strip(i, w) drops w's last syllable exactly when it lies in factor i
    for g in ball(z2z, z2z.identity(), 4):
        runs = z2z.syllables(g.letters)
        for factor in (0, 1):
            kept = runs[:-1] if runs and runs[-1][0] == factor else runs
            letters = tuple(l for _, seg in kept for l in seg)
            assert bs_tree.strip(factor, g) == Word(z2z, letters)


def test_bass_serre_against_bfs(z2z, bs_tree):
    adj = bs_tree_adjacency(bs_tree, 5)
    root = bs_tree.vertex(0, z2z.identity())
    dist = graph_bfs(adj, root)
    for v, d in dist.items():
        assert bs_tree.distance(root, v) == d
    # also from a non-root source
    src = bs_tree.vertex(1, w(z2z, "x z"))
    dist = graph_bfs(adj, src)
    for v, d in list(dist.items())[:200]:
        assert bs_tree.distance(src, v) == d


def test_finite_graph_space_path():
    g = FiniteGraphSpace(
        vertices=("u", "v", "w"), base_adjacency={"u": ["v"], "v": ["u", "w"], "w": ["v"]}
    )
    assert g.distance("u", "w") == 2
    with pytest.raises(SpaceError):
        g.distance("u", "missing")


def test_cayley_tree_formula_vs_bfs(f2, f2_tree):
    adj = cayley_graph_adjacency(f2, 5)
    e = f2.identity()
    dist = graph_bfs(adj, e)
    for v, d in dist.items():
        assert f2_tree.distance(e, v) == d


# --- orbit maps -------------------------------------------------------------


def test_orbit_equivariance_bass_serre(z2z, bs_tree, bs_orbit):
    pts = ball(z2z, z2z.identity(), 3)
    for g in pts[:20]:
        for h in pts[:20]:
            v = bs_orbit(h)
            assert bs_orbit(g * h) == bs_tree.vertex(v.factor, g * v.rep)


@pytest.mark.parametrize("desc", ["F2", "Z * Z", "Z^2 * Z", "F2 x Z", "(Z^2 * Z) x Z"])
def test_orbit_distance_is_the_distance_of_the_images(desc):
    # d_X(g x0, h x0) read as the displacement of g^-1 h, on random words
    model = model_from_descriptor(desc)
    orbit = top_level_orbit(model)
    rng = random.Random(0)
    letters = [s for i in range(1, model.rank + 1) for s in (i, -i)]

    def draw() -> Word:
        return normal_form(model, [rng.choice(letters) for _ in range(rng.randrange(14))])

    for _ in range(400):
        g, h = draw(), draw()
        assert orbit.distance(g, h) == orbit.space.distance(orbit(g), orbit(h))


def measured_lipschitz(orbit, radius: int) -> int:
    """Max displacement in the space of a single generator step within a ball."""
    best = 0
    for w in ball(orbit.group, orbit.group.identity(), radius):
        pw = orbit(w)
        for u in neighbours(orbit.group, w.letters):
            best = max(best, orbit.space.distance(pw, orbit(Word(orbit.group, u))))
    return best


def test_orbit_lipschitz_constants(f2_orbit, bs_orbit):
    assert measured_lipschitz(f2_orbit, 2) == 1
    assert measured_lipschitz(bs_orbit, 2) == 2


def test_first_factor_orbit(f2xz):
    orbit = top_level_orbit(f2xz)
    word = w(f2xz, "a t^3 b")
    assert orbit(word) == w(f2xz.left, "a b")
    assert left_component(f2xz, word) == w(f2xz.left, "a b")


# --- hyperbolicity ----------------------------------------------------------


def test_delta_zero_on_trees(f2, f2_tree):
    pts = ball(f2, f2.identity(), 3)
    est = delta_estimate(f2_tree, pts)
    assert est.exhaustive and est.value == 0.0


def test_delta_six_cycle():
    verts = tuple(range(6))
    adj = {i: [(i + 1) % 6, (i - 1) % 6] for i in verts}
    g = FiniteGraphSpace(vertices=verts, base_adjacency=adj)
    est = delta_estimate(g, verts)
    assert est.exhaustive and est.value == 1.0


def test_sampled_delta_on_six_cycle():
    verts = tuple(range(6))
    adj = {i: [(i + 1) % 6, (i - 1) % 6] for i in verts}
    g = FiniteGraphSpace(vertices=verts, base_adjacency=adj)
    est = delta_estimate(g, verts, seed=3, exhaustive_limit=4, samples=500)
    assert not est.exhaustive and est.quadruples == 500 and est.value == 1.0


def test_sampled_delta_bounded_by_exhaustive_and_seeded(z2):
    from ggtlab.spaces import cone_off

    graph = cone_off(z2, 4, [])
    pts = ball(z2, z2.identity(), 4)[::2]
    exact = delta_estimate(graph, pts).value
    # ten quadruples per estimate, so the value depends on the seed
    values = []
    for seed in range(10):
        est = delta_estimate(graph, pts, seed=seed, exhaustive_limit=3, samples=10)
        assert not est.exhaustive and est.quadruples == 10 and est.value <= exact
        assert delta_estimate(graph, pts, seed=seed, exhaustive_limit=3, samples=10).value == est.value
        values.append(est.value)
    assert len(set(values)) > 1


def test_delta_grows_on_z2_grid(z2):
    from ggtlab.spaces import cone_off

    pts2 = [v for v in ball(z2, z2.identity(), 2)]
    pts4 = [v for v in ball(z2, z2.identity(), 4)]
    graph2 = cone_off(z2, 2, [])
    graph4 = cone_off(z2, 4, [])
    d2 = delta_estimate(graph2, pts2).value
    d4 = delta_estimate(graph4, pts4).value
    assert d4 > d2 > 0


def test_delta_needs_four_points(f2, f2_tree):
    with pytest.raises(SpaceError):
        delta_estimate(f2_tree, ball(f2, f2.identity(), 0))


@st.composite
def coned_graphs(draw):
    """A random tree on 4-18 vertices plus chords and cliques, and 4-14 points."""
    n = draw(st.integers(4, 18))
    vertex = st.integers(0, n - 1)
    edges = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=4))
    cliques = draw(st.lists(st.lists(vertex, min_size=2, max_size=5, unique=True), max_size=3))
    points = draw(st.lists(vertex, min_size=4, max_size=min(14, n), unique=True))
    return n, edges, [tuple(c) for c in cliques], points


@given(coned_graphs(), st.sampled_from([1, 60, spaces._DEFECT_BLOCK]))
@settings(max_examples=150, deadline=None)
def test_delta_matches_four_point_oracle(case, block):
    # small blocks split each pivot's j-range into several blocks
    n, edges, cliques, points = case
    adj: dict = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    g = FiniteGraphSpace(vertices=tuple(range(n)), base_adjacency=adj, cliques=tuple(cliques))
    full = {v: set(ns) for v, ns in adj.items()}
    for c in cliques:
        for a, b in itertools.combinations(c, 2):
            full[a].add(b)
            full[b].add(a)
    rows = {p: graph_bfs(full, p) for p in points}
    with mock.patch.object(spaces, "_DEFECT_BLOCK", block):
        est = delta_estimate(g, points)
    assert est.value == four_point_delta(points, lambda p, q: rows[p][q])
    assert est.exhaustive and est.quadruples == math.comb(len(points), 4)


def _path_graph(n):
    adj = {v: [u for u in (v - 1, v + 1) if 0 <= u < n] for v in range(n)}
    return FiniteGraphSpace(vertices=tuple(range(n)), base_adjacency=adj)


@pytest.mark.parametrize("length", [12_000, 40_000])
def test_delta_zero_on_long_path(length):
    # on 40,000 vertices the pairing sums d(i,j) + d(k,l) leave int16's
    # range: a dtype chosen too narrow wraps and finds a defect on a tree
    points = list(range(0, length, length // 8)) + [length - 1]
    est = delta_estimate(_path_graph(length), points)
    assert est.value == 0.0 and est.quadruples == math.comb(len(points), 4)


def test_delta_memory_bounded():
    # 100 points: the blocked per-pivot search keeps its arrays small
    g = _path_graph(400)
    tracemalloc.start()
    try:
        est = delta_estimate(g, range(0, 400, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.value == 0.0
    assert peak <= 4_000_000


def test_delta_refuses_disconnected_points():
    adj = {0: [1], 1: [0, 2], 2: [1], 3: [4], 4: [3, 5], 5: [4]}
    g = FiniteGraphSpace(vertices=tuple(range(6)), base_adjacency=adj)
    with pytest.raises(SpaceError, match="graph is not connected"):
        delta_estimate(g, range(6))


def test_unknown_endpoints_refused_at_construction():
    with pytest.raises(SpaceError, match="'r' is not a vertex"):
        FiniteGraphSpace(vertices=("p", "q"), base_adjacency={"p": ["q", "r"]})
    with pytest.raises(SpaceError, match="'r' is not a vertex"):
        FiniteGraphSpace(vertices=("p", "q"), base_adjacency={"p": ["q"]}, cliques=(("p", "r"),))


# --- coning -----------------------------------------------------------------


def test_cone_single_coset(f2):
    fam = cyclic_coset_family(f2, w(f2, "a"), single_rep=f2.identity())
    coned = cone_off(f2, 3, [fam])
    assert coned.distance(w(f2, "a^3"), w(f2, "a^-3")) == 1
    # identity coning leaves word distances intact
    plain = cone_off(f2, 3, [])
    for u in list(plain.vertices)[:25]:
        assert plain.distance(f2.identity(), u) == word_distance(f2, f2.identity(), u)


def test_cone_never_increases_distance(f2):
    fam = cyclic_coset_family(f2, w(f2, "a"))
    coned = cone_off(f2, 3, [fam])
    e = f2.identity()
    dmap = coned.distances_from(e)
    for u in coned.vertices:
        assert dmap[u] <= word_distance(f2, e, u)


def test_cone_all_z2_conjugates(z2z):
    def z2_class(word: Word):
        runs = z2z.syllables(word.letters)
        if runs and runs[-1][0] == 0:
            runs = runs[:-1]
        return tuple(l for _, seg in runs for l in seg)

    from ggtlab.spaces import CosetFamily

    fam = CosetFamily("Z^2 cosets", z2_class)
    coned = cone_off(z2z, 5, [fam])
    assert coned.distance(z2z.identity(), w(z2z, "x y z")) == 2


def test_cone_warns_on_trivial_family(f2):
    fam = cyclic_coset_family(f2, w(f2, "a"), single_rep=w(f2, "b^9 a b^9"))
    with pytest.warns(UserWarning):
        cone_off(f2, 2, [fam])


def test_serialize_roundtrip_line_format():
    g = FiniteGraphSpace(vertices=("p", "q"), base_adjacency={"p": ["q"], "q": ["p"]})
    text = g.serialize()
    assert text.splitlines() == ["p: q", "q: p"]


def test_serialize_spells_each_expanded_neighbour_list(f2, z2z):
    # each vertex is spelled once and its spelling reused in every list
    for model, root in ((f2, "a b"), (z2z, "x z")):
        coned = cone_off(model, 3, [cyclic_coset_family(model, w(model, root))])
        adj = expanded_adjacency(coned)
        assert coned.serialize() == "".join(f"{v}: {' '.join(str(u) for u in adj[v])}\n" for v in coned.vertices)


def test_clique_bfs_matches_expanded_bfs(f2):
    fam = cyclic_coset_family(f2, w(f2, "a"))
    coned = cone_off(f2, 3, [fam])
    adj = expanded_adjacency(coned)
    for src in list(coned.vertices)[:10]:
        assert coned.distances_from(src) == graph_bfs(adj, src)


# --- fibre separation --------------------------------------------------------


def test_fibre_separation_identity_orbit_bounded(f2, f2_orbit):
    x = f2.identity()
    y = w(f2, "a b a b")
    prof = fibre_separation_profile(f2_orbit, x, y, r=1, s=2, truncations=[4, 6, 8])
    assert prof.verdict == "bounded"


def test_fibre_separation_fibered_growing(f2xz):
    # fibres are {g} x Z; for adjacent base points the s-thickened fibre of x
    # meets the fibre of y in a whole line, so the truncated diameter grows
    orbit = top_level_orbit(f2xz)
    x = f2xz.left.identity()
    y = w(f2xz.left, "a")
    prof = fibre_separation_profile(orbit, x, y, r=0, s=1, truncations=[4, 6, 8])
    assert prof.verdict == "growing"
    diams = [d for _, d in prof.pairs]
    assert diams[0] < diams[1] < diams[2]


def test_fibre_separation_bass_serre_far_vertices(z2z, bs_tree, bs_orbit):
    x = bs_tree.vertex(0, z2z.identity())
    y = bs_tree.vertex(0, w(z2z, "z x z x^-1 z"))
    assert bs_tree.distance(x, y) == 6
    prof = fibre_separation_profile(bs_orbit, x, y, r=1, s=2, truncations=[4, 6])
    assert prof.verdict == "bounded"


def test_fibre_separation_precondition(f2, f2_orbit):
    with pytest.raises(SpaceError):
        fibre_separation_profile(f2_orbit, f2.identity(), w(f2, "a"), r=1, s=1, truncations=[4])


def test_golden_fibre_separation_profiles(f2, f2xz, z2z, f2_orbit, bs_tree, bs_orbit):
    # sha256 recorded before `fibre_separation_profile` lost its unused `cap`
    import hashlib

    fibred = top_level_orbit(f2xz)
    cases = [
        (f2_orbit, f2.identity(), w(f2, "a b a b"), 1, 2, [4, 6, 8]),
        (f2_orbit, w(f2, "b"), w(f2, "a^2 b^-1 a"), 1, 1, [3, 5, 7]),
        (fibred, f2xz.left.identity(), w(f2xz.left, "a"), 0, 1, [4, 6, 8]),
        (bs_orbit, bs_tree.vertex(0, z2z.identity()), bs_tree.vertex(0, w(z2z, "z x z x^-1 z")), 1, 2, [4, 6]),
    ]
    lines = []
    for orbit, x, y, r, s, truncs in cases:
        prof = fibre_separation_profile(orbit, x, y, r=r, s=s, truncations=truncs)
        lines.append(f"{prof.pairs} {prof.verdict} {sorted(prof.params.items())}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "4392c4277c11a53171678df19b90c14a38f45711e133f440f5b3fbce62388934"
    )
