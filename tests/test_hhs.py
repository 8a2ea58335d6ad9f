"""Skeletons, orthogonality graphs, coning schedules, factored balls."""

import json
import warnings

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggtlab.groups import Word, ball, model_from_descriptor, word_distance
from ggtlab.hhs import (
    ConingSchedule,
    HHSSkeleton,
    OrthGraph,
    Region,
    SkeletonError,
    coning_schedule,
    factored_ball,
    fiber_parallelism_check,
    figure_skeleton,
    make_skeleton,
    orthogonality_graph,
    product_free_regions,
    product_free_skeleton,
)
from ggtlab.spaces import CosetFamily, top_level_orbit
from ggtlab.groups import GroupError

from conftest import w
from oracles import cayley_graph_adjacency, graph_bfs


def nx_graph(og: OrthGraph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(og.vertices)
    g.add_edges_from(tuple(sorted(e)) for e in og.edges)
    return g


def random_skeleton(seed: int, max_domains: int = 12) -> HHSSkeleton:
    """A random valid skeleton for property tests."""
    import numpy as np

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_domains))
    names = [f"D{i}" for i in range(n)]
    maximal = "S"
    domains = [maximal] + names
    nest: list[tuple[str, str]] = []
    for i, d in enumerate(names):
        if i > 0 and rng.random() < 0.3:
            nest.append((d, names[int(rng.integers(0, i))]))
    sk0 = make_skeleton(domains, maximal, nest, (), domains)
    orth = []
    for i in range(n):
        for j in range(i + 1, n):
            u, v = names[i], names[j]
            if (u, v) in sk0.nesting or (v, u) in sk0.nesting:
                continue
            if rng.random() < 0.35:
                orth.append((u, v))
    unbounded = [maximal] + [d for d in names if rng.random() < 0.8]
    return make_skeleton(domains, maximal, nest, orth, unbounded)


def fibered_tree_skeleton() -> HHSSkeleton:
    """Toy skeleton of F2 x Z: the tree direction and the fibre direction."""
    return make_skeleton(
        domains=("S", "A", "V"),
        maximal="S",
        orth_pairs=(("A", "V"),),
        unbounded=("S", "A", "V"),
    )


def fibered_tree_regions(model) -> dict[str, Region]:
    """Region map for F2 x Z: only the fibre family V = {g} x Z is assigned.

    The tree-direction domain A has no region here (its product structure is
    a single unbounded tree slice), so factoring with this map cones the
    fibres only; fibre parallelism checks are not available (the flats of A
    are not two-sided)."""

    def v_key(w: Word):
        ls, _ = model.split(w.letters)
        return ls

    return {"V": Region(CosetFamily("tree fibres", v_key))}


# --- skeleton data ------------------------------------------------------------


def test_validation_rejects_comparable_orth():
    with pytest.raises(SkeletonError):
        make_skeleton(("S", "A", "B"), "S", nesting_pairs=[("A", "B")], orth_pairs=[("A", "B")])


def test_skeleton_is_validated_when_built():
    # no skeleton exists to be validated later: the constructor refuses bad data
    with pytest.raises(SkeletonError, match="maximal domain not listed"):
        HHSSkeleton(("S", "A"), "T", frozenset(), frozenset(), frozenset())
    with pytest.raises(SkeletonError, match="not nested below"):
        HHSSkeleton(("S", "A"), "S", frozenset(), frozenset(), frozenset())


def test_downward_closure():
    sk = make_skeleton(("S", "A", "B"), "S", nesting_pairs=[("B", "A")])
    assert sk.downward_closure(["A"]) == {"A", "B"}


# --- orthogonality graphs --------------------------------------------------------


def test_orth_graph_no_pairs():
    sk = make_skeleton(("S", "A"), "S")
    og = orthogonality_graph(sk)
    assert not og.edges and set(og.vertices) == {"S", "A"}


def test_orth_graph_bounded_domains_isolated():
    sk = make_skeleton(("S", "A", "B"), "S", orth_pairs=[("A", "B")], unbounded=["S", "A"])
    og = orthogonality_graph(sk)
    assert not og.edges  # B is bounded, so the pair contributes no edge


def test_orth_graph_product_skeleton():
    og = orthogonality_graph(product_free_skeleton())
    assert og.edges == frozenset({frozenset({"U", "V"}), frozenset({"W", "V"})})


def test_orth_graph_figure_skeleton():
    g = nx_graph(orthogonality_graph(figure_skeleton()))
    sizes = sorted(len(c) for c in nx.find_cliques(g) if len(c) >= 2)
    assert sizes == [2, 3, 4]


@st.composite
def orth_graphs(draw):
    """A random graph on 0-12 named vertices."""
    n = draw(st.integers(0, 12))
    names = [f"D{i}" for i in range(n)]
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return OrthGraph(tuple(names), frozenset(frozenset(e) for e in edges))


@given(orth_graphs())
@settings(max_examples=300, deadline=None)
def test_cliques_match_networkx(og):
    ours = og.cliques()
    assert len(set(ours)) == len(ours)
    assert all(list(c) == sorted(c) for c in ours)
    assert {frozenset(c) for c in ours} == {frozenset(c) for c in nx.find_cliques(nx_graph(og))}


def test_cliques_examples():
    assert OrthGraph((), frozenset()).cliques() == []
    og = OrthGraph(("A", "B", "C", "D"), frozenset({frozenset("AB"), frozenset("BC"), frozenset("AC")}))
    assert sorted(og.cliques()) == [("A", "B", "C"), ("D",)]


# --- schedules ----------------------------------------------------------------------


def test_triangle_plus_isolated():
    sk = make_skeleton(
        ("S", "U1", "U2", "U3", "V"),
        "S",
        orth_pairs=[("U1", "U2"), ("U1", "U3"), ("U2", "U3")],
    )
    sched = coning_schedule(sk)
    assert sched.termination_round == 1
    assert sched.rounds[0].largest_cliques == (("U1", "U2", "U3"),)
    assert sched.removed_total == {"U1", "U2", "U3"}


def test_edgeless_schedule_empty():
    sk = make_skeleton(("S", "A", "B"), "S")
    sched = coning_schedule(sk)
    assert sched.rounds == () and sched.removed_total == frozenset()


def test_figure_schedule_rounds():
    sched = coning_schedule(figure_skeleton())
    assert [sorted(r.removed) for r in sched.rounds] == [
        ["A", "B", "C", "D"],
        ["E", "F", "G"],
        ["H", "I"],
    ]
    # the surviving unbounded non-maximal domain J keeps the factored space
    # from being the single maximal coordinate
    survivors = set(sched.skeleton.domains) - set(sched.removed_total)
    assert survivors == {"S", "J"}
    assert not sched.rounds[-1].remaining_edges


def test_schedule_json():
    sched = coning_schedule(figure_skeleton())
    assert sorted(sched.rounds[0].removed) == ["A", "B", "C", "D"]


def test_random_skeletons_terminate_fast():
    for seed in range(50):
        sk = random_skeleton(seed, max_domains=12)
        og = orthogonality_graph(sk)
        omega = (
            max(len(c) for c in nx.find_cliques(nx_graph(og))) if og.edges else 1
        )
        sched = coning_schedule(sk)
        assert sched.termination_round <= omega
        for r in sched.rounds:
            # each round removes a downward-closed set (within what remained)
            before = r.removed | r.remaining
            assert sk.downward_closure(r.removed) & before == r.removed
        if sched.rounds:
            assert not sched.rounds[-1].remaining_edges


# --- factored balls -------------------------------------------------------------------


@pytest.fixture(scope="module")
def product_setup(z2z_by_z):
    sched = coning_schedule(product_free_skeleton())
    regions = product_free_regions(z2z_by_z)
    return sched, regions


def test_product_regions_need_a_two_factor_product(f2xz):
    for model in (f2xz, model_from_descriptor("(Z^2 * Z * Z) x Z")):
        with pytest.raises(GroupError):
            product_free_regions(model)


def test_round_zero_is_word_ball(z2z_by_z, product_setup):
    sched, regions = product_setup
    fb = factored_ball(z2z_by_z, 3, sched, 0, regions)
    e = z2z_by_z.identity()
    for v in list(fb.vertices)[:60]:
        assert fb.distance(e, v) == word_distance(z2z_by_z, e, v)


def test_factored_never_exceeds_word_distance(z2z_by_z, product_setup):
    sched, regions = product_setup
    fb = factored_ball(z2z_by_z, 3, sched, sched.termination_round, regions)
    e = z2z_by_z.identity()
    dmap = fb.distances_from(e)
    for v in fb.vertices:
        assert dmap[v] <= word_distance(z2z_by_z, e, v)


def test_factored_example_distance(z2z_by_z, product_setup):
    sched, regions = product_setup
    fb = factored_ball(z2z_by_z, 4, sched, sched.termination_round, regions)
    assert fb.distance(z2z_by_z.identity(), w(z2z_by_z, "x y z")) == 2


def test_factored_vs_bass_serre_radius_four(z2z_by_z, product_setup):
    # mini version of the tree comparison: all separated pairs at radius 4
    sched, regions = product_setup
    fb = factored_ball(z2z_by_z, 4, sched, sched.termination_round, regions)
    orbit = top_level_orbit(z2z_by_z)
    sources = list(fb.vertices)[:: max(1, len(fb.vertices) // 120)]
    for u in sources:
        dmap = fb.distances_from(u)
        for v in fb.vertices:
            d_tree = orbit.distance(u, v)
            if d_tree >= 2:
                assert abs(dmap[v] - d_tree) <= 2, (str(u), str(v), dmap[v], d_tree)


def test_fibered_tree_ball_isometric_to_tree(f2xz):
    sk = fibered_tree_skeleton()
    sched = coning_schedule(sk)
    regions = fibered_tree_regions(f2xz)
    with pytest.warns(UserWarning):
        fb = factored_ball(f2xz, 4, sched, sched.termination_round, regions)
    from ggtlab.spaces import left_component

    f2 = f2xz.left
    base = [v for v in fb.vertices if f2xz.split(v.letters)[1] == 0]
    for u in base[:40]:
        dmap = fb.distances_from(u)
        for v in base:
            assert dmap[v] == word_distance(f2, left_component(f2xz, u), left_component(f2xz, v))


# --- fibre parallelism -------------------------------------------------------------------


def test_parallelism_same_region(z2z_by_z, product_setup):
    sched, regions = product_setup
    fb = factored_ball(z2z_by_z, 4, sched, sched.termination_round, regions)
    res = fiber_parallelism_check(z2z_by_z, fb, w(z2z_by_z, "x"), w(z2z_by_z, "y t"), 4, regions)
    assert res.verdict == "same product region"
    assert max(res.fiber_diameters) <= 1


def test_parallelism_round_zero_measures_fibres_in_the_graph(z2z_by_z, product_setup):
    # round 0 cones nothing, so a fibre inside one coset of U is no clique:
    # its diameter is that of the plain ball, by an independent BFS
    sched, regions = product_setup
    fb = factored_ball(z2z_by_z, 3, sched, 0, regions)
    x, y = w(z2z_by_z, "x"), w(z2z_by_z, "y t")
    res = fiber_parallelism_check(z2z_by_z, fb, x, y, 4, regions)
    adj = cayley_graph_adjacency(z2z_by_z, 3)
    fibre = regions["U"].parallelism_fibers
    expected = []
    for p in (x, y):
        pts = [v for v in fibre(p, 6) if v in adj]
        expected.append(max(graph_bfs(adj, u)[v] for u in pts for v in pts))
    assert res.fiber_diameters == tuple(expected) == (6, 4)
    assert res.verdict == "inconclusive"


def test_parallelism_degenerate(z2z_by_z, product_setup):
    sched, regions = product_setup
    fb = factored_ball(z2z_by_z, 3, sched, sched.termination_round, regions)
    res = fiber_parallelism_check(z2z_by_z, fb, w(z2z_by_z, "x"), w(z2z_by_z, "x"), 4, regions)
    assert res.verdict == "same product region"


def test_parallelism_far(z2z_by_z, product_setup):
    sched, regions = product_setup
    fb = factored_ball(z2z_by_z, 4, sched, sched.termination_round, regions)
    res = fiber_parallelism_check(
        z2z_by_z, fb, z2z_by_z.identity(), w(z2z_by_z, "z x z"), 4, regions, sweep=(1, 2, 3)
    )
    assert res.verdict == "far"


def test_parallelism_inverts_once_per_fibre_point(z2z_by_z, product_setup, monkeypatch):
    # the Hausdorff sweep measures a fibre point against the other fibre by
    # one distance row, so a radius costs at most |fx| + |fy| inversions
    # (one per pair would be 2 |fx| |fy|)
    from ggtlab.groups import DirectProduct

    sched, regions = product_setup
    fb = factored_ball(z2z_by_z, 3, sched, sched.termination_round, regions)
    x, y, sweep = w(z2z_by_z, "x z"), w(z2z_by_z, "y t^-1"), (2, 4, 6)
    fibre = regions["U"].parallelism_fibers
    allowed = sum(len(fibre(x, r)) + len(fibre(y, r)) for r in sweep)
    inverse, calls = DirectProduct.inverse, []

    def counted(self, letters):
        calls.append(letters)
        return inverse(self, letters)

    monkeypatch.setattr(DirectProduct, "inverse", counted)
    res = fiber_parallelism_check(z2z_by_z, fb, x, y, 4, regions, sweep)
    assert res.verdict == "far"
    assert 0 < len(calls) <= allowed


def test_flat_fibres_are_the_normalized_concatenations(z2z_by_z, product_setup):
    # on the points of the radius-3 ball and the sweep's radii, a fibre point
    # x w2 as the product of two normal forms is the normal form of x w2
    _, regions = product_setup
    fibre = regions["U"].parallelism_fibers
    flat = z2z_by_z.left.factors[0]
    for x in ball(z2z_by_z, z2z_by_z.identity(), 3):
        for r in (2, 4, 6):
            expected = [Word(z2z_by_z, z2z_by_z.normalize(x.letters + u.letters)) for u in ball(flat, flat.identity(), r)]
            assert fibre(x, r) == expected


def test_parallelism_missing_descriptor(f2xz):
    sk = fibered_tree_skeleton()
    sched = coning_schedule(sk)
    regions = fibered_tree_regions(f2xz)
    with pytest.warns(UserWarning):
        fb = factored_ball(f2xz, 3, sched, sched.termination_round, regions)
    with pytest.raises(GroupError):
        fiber_parallelism_check(f2xz, fb, f2xz.identity(), w(f2xz, "a"), 4, regions)


def test_golden_coning_schedules():
    # sha256 of the rounds, recorded before each round listed its cliques once
    import hashlib

    skeletons = [figure_skeleton(), product_free_skeleton(), fibered_tree_skeleton()]
    skeletons += [random_skeleton(seed, max_domains=12) for seed in range(200)]
    lines = []
    for sk in skeletons:
        sched = coning_schedule(sk)
        for r in sched.rounds:
            edges = sorted(tuple(sorted(e)) for e in r.remaining_edges)
            lines.append(f"{r.index} {r.largest_cliques} {sorted(r.removed)} {sorted(r.remaining)} {edges}")
        lines.append(f"total {sorted(sched.removed_total)}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "3e05e28beff805c053fd9624df16552e498a168ac9693e9ca7579e9cedeaf7fc"
    )


def schedule_json(sched) -> str:
    """A coning schedule in the layout of `reference_schedule_json`."""
    return json.dumps(
        {
            "rounds": [
                {
                    "index": r.index,
                    "largestCliques": [list(c) for c in r.largest_cliques],
                    "removed": sorted(r.removed),
                    "remaining": sorted(r.remaining),
                }
                for r in sched.rounds
            ],
            "removedTotal": sorted(sched.removed_total),
        }
    )


def reference_schedule_json(sk) -> str:
    """The coning schedule of `sk`, with networkx finding each round's cliques."""
    current = frozenset(sk.domains)
    rounds = []
    while True:
        g = nx_graph(orthogonality_graph(sk, current))
        if not g.number_of_edges():
            break
        cliques = [sorted(c) for c in nx.find_cliques(g) if len(c) >= 2]
        top = max(len(c) for c in cliques)
        largest = sorted(c for c in cliques if len(c) == top)
        removed = sk.downward_closure(sorted({d for c in largest for d in c})) & current
        current = current - removed
        rounds.append(
            {"index": len(rounds) + 1, "largestCliques": largest, "removed": sorted(removed), "remaining": sorted(current)}
        )
    return json.dumps({"rounds": rounds, "removedTotal": sorted(frozenset(sk.domains) - current)})


def test_schedules_match_networkx_reference():
    skeletons = [figure_skeleton(), product_free_skeleton(), fibered_tree_skeleton()]
    skeletons += [random_skeleton(seed, max_domains=12) for seed in range(200)]
    for sk in skeletons:
        assert schedule_json(coning_schedule(sk)) == reference_schedule_json(sk)
