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
from ggtlab.groups import FreeGroup, Word, ball, model_from_descriptor, neighbours, normal_form, word_distance
from ggtlab.spaces import (
    FiniteGraphSpace,
    _bass_serre_distance,
    SpaceError,
    cone_off,
    cyclic_coset_family,
    delta_estimate,
    fibre_separation_profile,
    left_component,
    top_level_orbit,
)

from conftest import w
from oracles import (
    bs_tree_adjacency,
    cayley_graph_adjacency,
    expanded_adjacency,
    four_point_delta,
    graph_bfs,
    id_graph,
)


# --- distances -------------------------------------------------------------


def test_cayley_tree_distance(f2, f2_orbit):
    assert f2_orbit.distance(f2.identity(), w(f2, "a b")) == 2


def test_bass_serre_examples(z2z):
    # vertices e·F0 to z·F0, x·F0 = e·F0, e·F1 and x·F1
    assert _bass_serre_distance(z2z, 0, 0, w(z2z, "z").letters) == 2
    assert _bass_serre_distance(z2z, 0, 0, w(z2z, "x").letters) == 0
    assert _bass_serre_distance(z2z, 0, 1, ()) == 1
    assert _bass_serre_distance(z2z, 0, 1, w(z2z, "x").letters) == 1


def test_strip_matches_syllable_definition(z2z):
    # strip(i, w) drops w's last syllable exactly when it lies in factor i
    for g in ball(z2z, z2z.identity(), 4):
        runs = z2z.syllables(g.letters)
        for factor in (0, 1):
            kept = runs[:-1] if runs and runs[-1][0] == factor else runs
            letters = tuple(l for _, seg in kept for l in seg)
            assert z2z.strip(factor, g.letters) == letters


def test_bass_serre_against_bfs(z2z):
    # the syllable count between F0 and F1 vertices, which the orbit of x0
    # (F0 vertices only) never reaches, against BFS: every vertex of the
    # radius-5 tree from e·F0, and the 200 nearest from (x z)·F1
    adj = bs_tree_adjacency(z2z, 5)
    for factor, rep, cap in [(0, (), None), (1, z2z.strip(1, w(z2z, "x z").letters), 200)]:
        dist = list(graph_bfs(adj, (factor, rep)).items())
        assert cap or len(dist) == len(adj)
        for (j, letters), d in dist[:cap]:
            assert _bass_serre_distance(z2z, factor, j, z2z.product(z2z.inverse(rep), letters)) == d


def test_finite_graph_space_path():
    g = id_graph(("u", "v", "w"), {"u": ["v"], "v": ["u", "w"], "w": ["v"]})
    assert g.distance("u", "w") == 2
    with pytest.raises(SpaceError):
        g.distance("u", "missing")


def test_cayley_tree_formula_vs_bfs(f2, f2_orbit):
    adj = cayley_graph_adjacency(f2, 5)
    e = f2.identity()
    dist = graph_bfs(adj, e)
    for v, d in dist.items():
        assert f2_orbit.distance(e, v) == d


# --- orbit maps -------------------------------------------------------------


def test_orbit_equivariance_bass_serre(z2z, bs_orbit):
    # g (h F0) = (g h) F0: the coset key of g h is that of g times h's key,
    # and the orbit distance does not see the factor F0 on the right
    pts = ball(z2z, z2z.identity(), 3)
    for g in pts[:20]:
        for h in pts[:20]:
            rep = Word(z2z, z2z.strip(0, h.letters))
            assert z2z.strip(0, (g * h).letters) == z2z.strip(0, (g * rep).letters)
            assert bs_orbit.distance(g, h) == bs_orbit.distance(g, rep)


@pytest.mark.parametrize("desc", ["F2", "Z * Z", "Z^2 * Z", "F2 x Z", "(Z^2 * Z) x Z"])
def test_orbit_distance_is_the_distance_of_the_images(desc):
    # d_X(g x0, h x0) against BFS over the explicit top-level tree: the
    # Cayley tree of a free group, whose vertices are its elements, or the
    # Bass-Serre tree of a free product, where x0 = e·F0 and g x0 = g·F0;
    # on G x Z each element carries a random central power, which moves nothing
    model = model_from_descriptor(desc)
    orbit = top_level_orbit(model)
    tree = orbit.tree
    if isinstance(tree, FreeGroup):
        adj = {v.letters: [u.letters for u in ns] for v, ns in cayley_graph_adjacency(tree, 5).items()}

        def image(ls):
            return ls

        def orbit_point(v):
            return v
    else:
        adj = bs_tree_adjacency(tree, 5)

        def image(ls):
            return (0, tree.strip(0, ls))

        def orbit_point(v):
            return v[1] if v[0] == 0 else None
    rng = random.Random(0)
    letters = [s for i in range(1, tree.rank + 1) for s in (i, -i)]

    def lift(ls) -> Word:
        if tree is model:
            return Word(model, ls)
        k = rng.randrange(-3, 4)
        c = model.central_index if k > 0 else -model.central_index
        return normal_form(model, ls + (c,) * abs(k))

    sources = [()] + [tree.normalize([rng.choice(letters) for _ in range(rng.randrange(1, 5))]) for _ in range(5)]
    checked = 0
    for ls in sources:
        g = lift(ls)
        for v, d in graph_bfs(adj, image(ls)).items():
            if (pt := orbit_point(v)) is not None:
                assert orbit.distance(g, lift(pt)) == d, (str(g), v)
                checked += 1
    assert checked > 100


@pytest.mark.parametrize("desc", ["F2", "Z * Z", "Z^2 * Z", "F2 x Z", "(Z^2 * Z) x Z"])
def test_orbit_distance_row_is_the_row_of_distances(desc):
    model = model_from_descriptor(desc)
    orbit = top_level_orbit(model)
    pts = ball(model, model.identity(), 2)
    for g in pts[::3]:
        expected = [orbit.distance(g, h) for h in pts]
        assert orbit.distance_row(g, pts) == expected
        assert orbit.distance_row(g, iter(pts)) == expected
    assert orbit.distance_row(pts[1], []) == []


def measured_lipschitz(orbit, radius: int) -> int:
    """Max displacement in the space of a single generator step within a ball."""
    best = 0
    for w in ball(orbit.group, orbit.group.identity(), radius):
        for u in neighbours(orbit.group, w.letters):
            best = max(best, orbit.distance(w, Word(orbit.group, u)))
    return best


def test_orbit_lipschitz_constants(f2_orbit, bs_orbit):
    assert measured_lipschitz(f2_orbit, 2) == 1
    assert measured_lipschitz(bs_orbit, 2) == 2


def test_first_factor_orbit(f2xz):
    # G x Z acts on the tree of G through its G-component
    orbit = top_level_orbit(f2xz)
    word = w(f2xz, "a t^3 b")
    assert orbit.tree is f2xz.left and orbit.name == "proj+identity"
    assert orbit.distance(word, w(f2xz, "a b")) == 0 and orbit.displacement(word.letters) == 2
    assert left_component(f2xz, word) == w(f2xz.left, "a b")


# --- hyperbolicity ----------------------------------------------------------


def test_delta_zero_on_trees(f2, f2_orbit):
    # group elements measured by the orbit map
    pts = ball(f2, f2.identity(), 3)
    est = delta_estimate(f2_orbit, pts)
    assert est.exhaustive and est.value == 0.0


def test_delta_six_cycle():
    verts = tuple(range(6))
    adj = {i: [(i + 1) % 6, (i - 1) % 6] for i in verts}
    g = id_graph(verts, adj)
    est = delta_estimate(g, verts)
    assert est.exhaustive and est.value == 1.0


def test_delta_grows_on_z2_grid(z2):
    from ggtlab.spaces import cone_off

    pts2 = [v for v in ball(z2, z2.identity(), 2)]
    pts4 = [v for v in ball(z2, z2.identity(), 4)]
    graph2 = cone_off(z2, 2, [])
    graph4 = cone_off(z2, 4, [])
    d2 = delta_estimate(graph2, pts2).value
    d4 = delta_estimate(graph4, pts4).value
    assert d4 > d2 > 0


def test_delta_needs_four_points(f2, f2_orbit):
    with pytest.raises(SpaceError):
        delta_estimate(f2_orbit, ball(f2, f2.identity(), 0))


def test_delta_refuses_more_than_200_points_before_any_bfs(monkeypatch):
    g = _path_graph(400)

    def no_bfs(self, src):
        raise AssertionError("BFS ran before the point count was checked")

    monkeypatch.setattr(FiniteGraphSpace, "_bfs", no_bfs)
    with pytest.raises(SpaceError, match="4 to 200 points, got 201"):
        delta_estimate(g, range(201))


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
    # small blocks split the triples j < k < l of one j across several blocks
    n, edges, cliques, points = case
    adj: dict = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    g = id_graph(range(n), adj, cliques)
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
    return id_graph(range(n), adj)


@pytest.mark.parametrize("length", [12_000, 40_000])
def test_delta_zero_on_long_path(length):
    # on 40,000 vertices the pairing sums d(i,j) + d(k,l) leave int16's
    # range: a dtype chosen too narrow wraps and finds a defect on a tree
    points = list(range(0, length, length // 8)) + [length - 1]
    est = delta_estimate(_path_graph(length), points)
    assert est.value == 0.0 and est.quadruples == math.comb(len(points), 4)


def test_delta_memory_bounded():
    # 100 points: the search holds one block of triples at a time
    g = _path_graph(400)
    tracemalloc.start()
    try:
        est = delta_estimate(g, range(0, 400, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.value == 0.0
    assert peak <= 4_000_000


def test_delta_memory_bounded_at_the_point_limit():
    # 200 points, C(200, 3) triples: one block of triples at a time is held,
    # never the whole triple list (about 31 MB of indices)
    g = _path_graph(400)
    tracemalloc.start()
    try:
        est = delta_estimate(g, range(0, 400, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.value == 0.0 and est.quadruples == math.comb(200, 4)
    assert peak <= 4_000_000


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_defect_matches_four_point_oracle_on_a_coned_ball(f2, seed):
    # the benchmark's cone-delta shape: F2's radius-4 ball coned along the
    # cosets of <a b>, 40 of its points, distances from BFS on the expanded graph
    import numpy as np

    coned = cone_off(f2, 4, [cyclic_coset_family(f2, w(f2, "a b"))])
    adj = expanded_adjacency(coned)
    points = [coned.vertices[i] for i in sorted(random.Random(seed).sample(range(len(coned)), 40))]
    rows = {p: graph_bfs(adj, p) for p in points}
    D = np.array([[rows[p][q] for q in points] for p in points])
    assert spaces._exhaustive_defect(D) / 2 == four_point_delta(points, lambda p, q: rows[p][q])


def test_delta_refuses_disconnected_points():
    adj = {0: [1], 1: [0, 2], 2: [1], 3: [4], 4: [3, 5], 5: [4]}
    g = id_graph(range(6), adj)
    with pytest.raises(SpaceError, match="graph is not connected"):
        delta_estimate(g, range(6))


def test_distance_matrix_within_one_component_only():
    adj = {0: [1], 1: [0, 2], 2: [1], 3: [4], 4: [3, 5], 5: [4]}
    g = id_graph(range(6), adj)
    assert g.distance_matrix([0, 2, 1]) == [[0, 2, 1], [2, 0, 1], [1, 1, 0]]
    assert g.distance_matrix([]) == []
    with pytest.raises(SpaceError, match="graph is not connected"):
        g.distance_matrix([2, 3])


def test_unknown_endpoints_refused_at_construction():
    # ids are positions in the vertex tuple: one past the end, a negative one
    # and a non-integer one are refused, as is a neighbour list per vertex
    # that is missing
    with pytest.raises(SpaceError, match="endpoint 2 is not a vertex id below 2"):
        FiniteGraphSpace(("p", "q"), [[1, 2], [0]], ())
    with pytest.raises(SpaceError, match="endpoint -1 is not a vertex id below 2"):
        FiniteGraphSpace(("p", "q"), [[1], [0]], ((0, -1),))
    with pytest.raises(SpaceError, match="endpoint 'q' is not a vertex id"):
        FiniteGraphSpace(("p", "q"), [["q"], [0]], ())
    with pytest.raises(SpaceError, match="1 neighbour lists for 2 vertices"):
        FiniteGraphSpace(("p", "q"), [[1]], ())


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
    g = id_graph(("p", "q"), {"p": ["q"], "q": ["p"]})
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
    x = f2xz.identity()
    y = w(f2xz, "a")
    prof = fibre_separation_profile(orbit, x, y, r=0, s=1, truncations=[4, 6, 8])
    assert prof.verdict == "growing"
    diams = [d for _, d in prof.pairs]
    assert diams[0] < diams[1] < diams[2]


def test_fibre_separation_bass_serre_far_vertices(z2z, bs_orbit):
    x = z2z.identity()
    y = w(z2z, "z x z x^-1 z")
    assert bs_orbit.distance(x, y) == 6
    prof = fibre_separation_profile(bs_orbit, x, y, r=1, s=2, truncations=[4, 6])
    assert prof.verdict == "bounded"


def test_fibre_separation_precondition(f2, f2_orbit):
    with pytest.raises(SpaceError):
        fibre_separation_profile(f2_orbit, f2.identity(), w(f2, "a"), r=1, s=1, truncations=[4])


def test_golden_fibre_separation_profiles(f2, f2xz, z2z, f2_orbit, bs_orbit):
    # sha256 recorded before `fibre_separation_profile` lost its unused `cap`,
    # when it still took points of the tree where it now takes group elements
    import hashlib

    fibred = top_level_orbit(f2xz)
    cases = [
        (f2_orbit, f2.identity(), w(f2, "a b a b"), 1, 2, [4, 6, 8]),
        (f2_orbit, w(f2, "b"), w(f2, "a^2 b^-1 a"), 1, 1, [3, 5, 7]),
        (fibred, f2xz.identity(), w(f2xz, "a"), 0, 1, [4, 6, 8]),
        (bs_orbit, z2z.identity(), w(z2z, "z x z x^-1 z"), 1, 2, [4, 6]),
    ]
    lines = []
    for orbit, x, y, r, s, truncs in cases:
        prof = fibre_separation_profile(orbit, x, y, r=r, s=s, truncations=truncs)
        lines.append(f"{prof.pairs} {prof.verdict} {sorted(prof.params.items())}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "4392c4277c11a53171678df19b90c14a38f45711e133f440f5b3fbce62388934"
    )
