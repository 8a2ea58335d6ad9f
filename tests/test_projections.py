"""Axes, projections, coset distance sums, linear order, and pivots."""

import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ggtlab.groups import GroupError, Word, ball, geodesic, model_from_descriptor, normal_form, word_distance
from ggtlab.projections import (
    Axis,
    CertificationError,
    NotLoxodromicError,
    axis_of,
    behrstock_alternative,
    coset_distance,
    coset_rep_key,
    distance_formula_sum,
    enumerate_cosets,
    _setdist_x,
    linear_order,
    lower_bound_check,
    make_axis,
    pivot,
    project_axis_onto,
    project_to_set,
    projection_of_set,
    translate_axis_pool,
)
from ggtlab.spaces import OrbitMap, SpaceError

from conftest import w
from oracles import descended_line, line_vertex, padded_coset_entries, scan_axis_projection, window_axis_projection


# --- axes -------------------------------------------------------------------


def test_axis_of_power(f2):
    ax = axis_of(w(f2, "a^2"))
    assert str(ax.root) == "a" and ax.rep.is_identity()


def test_axis_of_conjugate(f2):
    ax = axis_of(w(f2, "b a^2 b^-1"))
    assert str(ax.root) == "a" and str(ax.rep) == "b"


@pytest.mark.parametrize(
    "g, root", [("x z x z", "x z"), ("x z^2 x z^2 x z^2", "x z^2"), ("z x z x", "x^-1 z^-1")]
)
def test_axis_of_proper_power_on_bass_serre(z2z, g, root):
    # a proper power translates along the axis of its root
    assert str(axis_of(w(z2z, g)).root) == root


def test_axis_elliptic_on_bass_serre(z2z):
    with pytest.raises(NotLoxodromicError):
        axis_of(w(z2z, "x"))
    with pytest.raises(NotLoxodromicError):
        axis_of(w(z2z, "x z x^-1"))


@pytest.mark.parametrize("desc, word", [("Z^2", "x y"), ("Z * Z * Z", "x y z")])
def test_axis_of_refuses_a_model_without_a_top_level_tree(desc, word):
    with pytest.raises(SpaceError, match="no top-level tree"):
        axis_of(w(model_from_descriptor(desc), word))


def test_axis_equality_is_coset_equality(f2):
    a1 = axis_of(w(f2, "a"))
    a2 = make_axis(f2, w(f2, "a"), w(f2, "a^3"))
    assert a1 == a2
    assert a1 != a1.translate(w(f2, "b"))


def test_interleaved_cosets_share_a_line(f2):
    # <a b> and a<b a> are disjoint cosets interleaved along one line
    a1 = axis_of(w(f2, "a b"))
    a2 = make_axis(f2, w(f2, "b a"), w(f2, "a"))
    assert a1 != a2
    anchor_direction = [ax.line[:2] for ax in (a1, a2)]
    assert anchor_direction[0] == anchor_direction[1]


def test_make_axis_refuses_a_root_that_is_not_cyclically_reduced(f2):
    # a b a^-1 is not cyclically reduced; its axis is a<b>, which `axis_of` finds
    with pytest.raises(GroupError, match="not cyclically reduced"):
        make_axis(f2, w(f2, "a b a^-1"), f2.identity())
    assert str(make_axis(f2, w(f2, "b a b^-1 a^-1"), w(f2, "b"))) == "b<a b a^-1 b^-1>"


def random_cyclically_reduced_root(model, rng: random.Random) -> Word:
    """A cyclically reduced word of length 1-4, a proper power one time in three."""
    letters = [s for i in range(1, model.rank + 1) for s in (i, -i)]
    while True:
        r = model.normalize(rng.choices(letters, k=rng.randint(1, 4)))
        if r and r[0] != -r[-1]:
            return Word(model, r * rng.choice((1, 1, 2)))


@pytest.mark.parametrize("desc", ["F2", "F3"])
def test_line_and_rep_key_match_the_descent(desc):
    # the one-pass line against the line walked down from rep, and the rep
    # key against the line's coset points nearest the identity
    model = model_from_descriptor(desc)
    rng = random.Random(22)
    letters = [s for i in range(1, model.rank + 1) for s in (i, -i)]
    for _ in range(1500):
        root = random_cyclically_reduced_root(model, rng)
        rep = normal_form(model, rng.choices(letters, k=rng.randint(0, 10)))
        anchor, direction, phase = descended_line(Axis(model, root, rep))
        assert Axis(model, root, rep).line == (anchor, direction, phase), (str(root), str(rep))
        # the coset points on either side of the anchor; length leads the key
        nearest = [line_vertex(model, anchor, direction, t) for t in (phase, phase - len(direction))]
        assert coset_rep_key(root, rep) == min(nearest, key=Word.sort_key).letters, (str(root), str(rep))


# --- projections --------------------------------------------------------------


def test_projection_examples(f2, f2_orbit):
    ax = axis_of(w(f2, "a"))
    assert [str(p) for p in project_to_set(f2_orbit, w(f2, "b a b"), ax).points] == ["e"]
    assert [str(p) for p in project_to_set(f2_orbit, w(f2, "a^4 b"), ax).points] == ["a^4"]


def test_projection_is_retraction(f2, f2_orbit):
    for root_text, rep_text in [("a", "e"), ("a b", "b^2")]:
        ax = make_axis(f2, w(f2, root_text), w(f2, rep_text))
        for n in range(-4, 5):
            x = ax.point(n)
            val = project_to_set(f2_orbit, x, ax)
            assert val.points == (x,) and val.distance == 0


def test_projection_matches_scan_oracle(f2, f2_orbit):
    # the six axes `default_axis_pool(tree, 6, seed=2, max_root_len=4)`
    # drew before that pool was removed
    pool = [
        make_axis(f2, w(f2, root), w(f2, rep))
        for root, rep in [
            ("a^-1 b^-1", "b"),
            ("a", "e"),
            ("b a^2 b", "e"),
            ("b a^-1 b", "a"),
            ("a", "a b^-1"),
            ("a", "b^-1"),
        ]
    ]
    for ax in pool:
        for x in ball(f2, f2.identity(), 4):
            got = set(project_to_set(f2_orbit, x, ax).points)
            want, dist = scan_axis_projection(f2, ax, x)
            assert got == want
            assert project_to_set(f2_orbit, x, ax).distance == dist


def test_projection_coarse_lipschitz_on_tree(f2, f2_orbit):
    # adjacent points project at distance <= 1 (slope-1 on trees)
    ax = make_axis(f2, w(f2, "a b"), w(f2, "b"))
    for x in ball(f2, f2.identity(), 4):
        px = projection_of_set(f2_orbit, [x], ax)
        for g in f2.generators():
            py = projection_of_set(f2_orbit, [x * g], ax)
            spread = max(
                f2_orbit.distance(u, v) for u in px | py for v in px | py
            )
            assert spread <= max(2, 1 + len(ax.root))


def test_bass_serre_projection_scan(z2z, bs_orbit):
    ax = axis_of(w(z2z, "x z"))
    val = project_to_set(bs_orbit, w(z2z, "z^3"), ax)
    assert val.method == "scan-axis"
    assert val.distance == 2


def test_scan_axis_measures_each_point_once(monkeypatch, z2z, bs_orbit):
    measured, inverted = [], []

    def displacement(letters):
        measured.append(letters)
        return bs_orbit.displacement(letters)

    inverse = type(z2z).inverse

    def counted(model, letters):
        inverted.append(letters)
        return inverse(model, letters)

    orbit = OrbitMap(z2z, z2z, bs_orbit.name, displacement)
    ax, x = axis_of(w(z2z, "x z")), w(z2z, "z^3 y")
    monkeypatch.setattr(type(z2z), "inverse", counted)
    val = project_to_set(orbit, x, ax)
    # the representative, the spacing (the root's displacement), then the
    # other 2·window points, with x inverted once
    assert len(measured) == 2 * val.window + 2
    assert len(set(measured)) == len(measured)
    assert inverted.count(x.letters) == 1


# --- coset distances -----------------------------------------------------------


def test_coset_distance_examples(f2, f2_orbit):
    ax = axis_of(w(f2, "a"))
    assert coset_distance(f2_orbit, ax, w(f2, "a^3"), w(f2, "b a^-2")) == 3
    assert coset_distance(f2_orbit, ax, w(f2, "b a b"), w(f2, "b a b")) == 0
    bax = ax.translate(w(f2, "b"))
    assert coset_distance(f2_orbit, bax, f2.identity(), w(f2, "b a^5 b")) == 5


# --- strong projections ----------------------------------------------------------


def test_strong_projection_equivariance(f2, f2_orbit):
    ax = axis_of(w(f2, "a"))
    g, x = w(f2, "a b"), w(f2, "b^2")
    lhs = project_to_set(f2_orbit, g * x, ax.translate(g)).points
    rhs = tuple(sorted((g * p for p in project_to_set(f2_orbit, x, ax).points), key=lambda u: u.sort_key()))
    assert lhs == rhs


def test_far_point_projects_to_gate(f2, f2_orbit):
    ax = axis_of(w(f2, "a"))
    bax = ax.translate(w(f2, "b"))
    shadow = project_axis_onto(f2_orbit, bax, ax)
    assert {str(p) for p in shadow} == {"e"}
    assert set(project_to_set(f2_orbit, w(f2, "b a^3"), ax).points) == set(shadow)


def test_axis_projection_onto_its_own_line_is_refused(monkeypatch, f2, f2_orbit):
    # an axis projects onto its own line as every one of its points, and two
    # cosets of one line likewise: refused before any projection is computed
    import ggtlab.projections

    def fail(*args, **kwargs):
        raise AssertionError("a projection was computed for an unbounded shadow")

    for name in ("project_to_set", "line_positions", "_line_foot"):
        monkeypatch.setattr(ggtlab.projections, name, fail)
    ax = axis_of(w(f2, "a"))
    with pytest.raises(CertificationError, match="lie on one line"):
        project_axis_onto(f2_orbit, ax, ax)
    with pytest.raises(CertificationError, match="lie on one line"):
        project_axis_onto(f2_orbit, ax.translate(w(f2, "a^3")), ax)
    # e<a b> and a<b a> share the line through ..., e, a, a b, a b a, ...
    with pytest.raises(CertificationError, match="lie on one line"):
        project_axis_onto(f2_orbit, make_axis(f2, w(f2, "a b"), f2.identity()), make_axis(f2, w(f2, "b a"), w(f2, "a")))


def test_axis_projection_off_the_cayley_tree_is_refused(z2z, bs_orbit):
    # the closed form reads lines of a Cayley tree; the Bass-Serre tree has none
    a1, a2 = axis_of(w(z2z, "x z")), axis_of(w(z2z, "y z"))
    with pytest.raises(CertificationError, match="no closed-form projection"):
        project_axis_onto(bs_orbit, a1, a2)


def random_free_word(f2, rng: random.Random, length: int) -> Word:
    return Word(f2, f2.normalize([rng.choice((1, -1, 2, -2)) for _ in range(length)]))


MIXED_ROOTS = ("a", "b", "a b", "b a", "a b^-1", "a^2 b", "a b a^-1 b^-1")


def test_project_axis_onto_matches_window_scan(f2, f2_orbit):
    rng = random.Random(21)
    roots = [w(f2, r) for r in MIXED_ROOTS]
    axes = [make_axis(f2, rng.choice(roots), random_free_word(f2, rng, rng.randint(0, 4))) for _ in range(24)]
    pairs = [(a1, a2) for a1 in axes for a2 in axes]
    pairs += [
        # the documented pair: the lines share the edge from a to a^2
        (make_axis(f2, w(f2, "a b^-1"), w(f2, "a")), make_axis(f2, w(f2, "a"), f2.identity())),
        (make_axis(f2, w(f2, "a"), f2.identity()), make_axis(f2, w(f2, "a b^-1"), w(f2, "a"))),
        # far apart disjoint lines, bridged by b^7 and by a^-3 b^6 a^2
        (make_axis(f2, w(f2, "a"), f2.identity()), make_axis(f2, w(f2, "a"), w(f2, "b^7"))),
        (make_axis(f2, w(f2, "a b"), w(f2, "a^-3 b^6 a^2")), make_axis(f2, w(f2, "a^2 b"), f2.identity())),
    ]
    refused = 0
    for src, target in pairs:
        # these lines part within a few letters; a scan that finds no stable
        # window up to 64 has found one shared line
        expected = window_axis_projection(f2_orbit, src, target, cap=64)
        if expected is None:
            refused += 1
            with pytest.raises(CertificationError, match="lie on one line"):
                project_axis_onto(f2_orbit, src, target)
        else:
            assert project_axis_onto(f2_orbit, src, target) == expected, (str(src), str(target))
    assert 24 <= refused < len(pairs) // 4


def test_linear_order_projects_no_axis_points(monkeypatch, f2, f2_orbit):
    # the 780 pairs of a 40-coset record are ordered from the lines alone
    rec = enumerate_cosets(f2_orbit, w(f2, "a"), f2.identity(), w(f2, " ".join(["a^4 b"] * 40)), 3)

    def fail(self, window):
        raise AssertionError("an axis was scanned point by point")

    monkeypatch.setattr(Axis, "points", fail)
    entries, report = linear_order(rec)
    assert len(entries) == 40 and report.pairs == 780 and report.consistent


def strong_alternative_violations(orbit, a1, a2, xs, bound: int) -> list[Word]:
    """Exact-identification form of the two-sided alternative: far on a1
    forces the projection onto a2 to equal a1's whole shadow on a2."""
    p12 = project_axis_onto(orbit, a2, a1)
    p21 = project_axis_onto(orbit, a1, a2)
    bad = []
    for x in xs:
        q1 = project_to_set(orbit, x, a1).points
        if _setdist_x(orbit, q1, p12) > bound:
            if frozenset(project_to_set(orbit, x, a2).points) != p21:
                bad.append(x)
    return bad


def test_behrstock_translate_pool_small(f2, f2_orbit):
    pool = translate_axis_pool(w(f2, "a"), 6, seed=9)
    xs = ball(f2, f2.identity(), 4)
    for i in range(len(pool)):
        for j in range(len(pool)):
            if i == j:
                continue
            rep = behrstock_alternative(f2_orbit, pool[i], pool[j], xs, bound=2)
            assert rep.ok
            assert not strong_alternative_violations(f2_orbit, pool[i], pool[j], xs, bound=2)


def test_strong_identification_fails_for_mixed_roots(f2, f2_orbit):
    # documented counterexample: far points on a<a b^-1> project to {a} on
    # <a>, while the full shadow is {a, a^2}
    a1 = make_axis(f2, w(f2, "a b^-1"), w(f2, "a"))
    a2 = axis_of(w(f2, "a"))
    xs = [w(f2, "a b a^-1 b a^-1")]
    assert strong_alternative_violations(f2_orbit, a1, a2, xs, bound=2)


# --- coset records ---------------------------------------------------------------


def test_enumerate_example(f2, f2_orbit):
    rec = enumerate_cosets(f2_orbit, w(f2, "a"), f2.identity(), w(f2, "b a^5 b"), 4)
    assert [(str(e.axis.rep), e.value) for e in rec.entries] == [("b", 5)]


def test_enumerate_empty_threshold_above_distance(f2, f2_orbit):
    o, p = f2.identity(), w(f2, "b a b")
    rec = enumerate_cosets(f2_orbit, w(f2, "a"), o, p, word_distance(f2, o, p) + 3)
    assert rec.entries == []
    rec2 = enumerate_cosets(f2_orbit, w(f2, "a"), o, o, 1)
    assert rec2.entries == []


@pytest.mark.parametrize(
    "g, target, threshold",
    [
        ("a", "b a^5 b", 4),
        # the htsum roots of length 2, at T = 3, their smallest certifiable threshold
        ("a b", "b a b a^-1 b a b", 3),
        ("a b^-1", "a b^-1 a b a b^-1 a", 3),
    ],
    ids=["a", "a_b", "a_b^-1"],
)
def test_enumerate_complete_vs_ball_bruteforce(f2, f2_orbit, g, target, threshold):
    # every coset meeting the radius-9 ball is checked directly; a coset
    # whose projections of o and p lie apart crosses [o, p], so its rep lies
    # within |p| + |root| <= 9 of o
    from ggtlab.projections import coset_rep_key
    from ggtlab.groups import Word

    o, p = f2.identity(), w(f2, target)
    root = axis_of(w(f2, g)).root
    rec = enumerate_cosets(f2_orbit, w(f2, g), o, p, threshold)
    assert rec.entries
    found = {(e.axis.root.letters, e.axis.rep.letters) for e in rec.entries}
    brute, checked = set(), set()
    for h in ball(f2, f2.identity(), 9):
        key = coset_rep_key(root, h)
        if key in checked or (root.letters, key) in found:
            continue
        checked.add(key)
        ax = Axis(f2, root, Word(f2, key))
        if coset_distance(f2_orbit, ax, o, p) >= threshold:
            brute.add((root.letters, key))
    assert not brute  # nothing beyond the certified enumeration


def test_enumerate_matches_padded_candidates(f2, f2_orbit):
    # the threshold cosets read off [o, p] are exactly those found among the
    # cosets met by a radius-(q//2 + 1) pad around it, on random paths with
    # planted runs of cyclic conjugates of root^(+-1)
    rng = random.Random(20)
    cases, sizes = 0, set()
    for g in ("a", "b", "a b", "a b^-1", "a^2 b"):
        root = axis_of(w(f2, g)).root
        q = len(root)
        t_min = max(2 * (q // 2) + 1, (q - 1) + 2 * (q // 2))
        for _ in range(40):
            o = random_free_word(f2, rng, rng.randint(0, 3))
            p = o
            for _ in range(rng.randint(1, 3)):
                shift = rng.randrange(q)
                block = root ** rng.choice((1, -1))
                block = Word(f2, f2.normalize(block.letters[shift:] + block.letters[:shift]))
                p = p * random_free_word(f2, rng, rng.randint(0, 3)) * block ** rng.randint(1, 4)
            for threshold in (t_min, t_min + 2, t_min + 4):
                rec = enumerate_cosets(f2_orbit, w(f2, g), o, p, threshold)
                assert rec.entries == padded_coset_entries(f2_orbit, w(f2, g), o, p, threshold), (g, str(o), str(p))
                cases += 1
                sizes.add(len(rec.entries))
    assert cases == 600 and {0, 1, 2, 3} <= sizes


def test_jsonl_serialization(f2, f2_orbit):
    rec = enumerate_cosets(f2_orbit, w(f2, "a"), f2.identity(), w(f2, "b a^5 b"), 4)
    lines = rec.to_jsonl().strip().splitlines()
    obj = json.loads(lines[0])
    assert obj["cosetRep"] == "b" and obj["value"] == 5 and obj["orderIndex"] == 0


def test_distance_formula_sum(f2, f2_orbit):
    rec = enumerate_cosets(f2_orbit, w(f2, "a"), f2.identity(), w(f2, "b a^5 b"), 4)
    assert distance_formula_sum(rec, f2.identity(), w(f2, "b a^5 b")) == 5
    assert distance_formula_sum(rec, w(f2, "a b"), w(f2, "a b")) == 0


def test_distance_formula_requires_certification(monkeypatch, f2, f2_orbit, bs_orbit, z2z):
    # no record to sum over: an uncertifiable search is refused before any
    # ball or geodesic is built
    import ggtlab.projections

    def fail(*args, **kwargs):
        raise AssertionError("a ball or geodesic was built for an uncertifiable search")

    monkeypatch.setattr(ggtlab.projections, "ball", fail)
    monkeypatch.setattr(ggtlab.projections, "geodesic", fail)
    with pytest.raises(CertificationError, match="enumeration window insufficient"):
        enumerate_cosets(bs_orbit, w(z2z, "x z"), z2z.identity(), w(z2z, "z x z"), 2)
    # root a b spaces coset points 2 apart; T = 2 is within that spacing
    with pytest.raises(CertificationError, match="enumeration window insufficient"):
        enumerate_cosets(f2_orbit, w(f2, "a b"), f2.identity(), w(f2, "b a b a b"), 2)


def test_triangle_inequality_instance(f2, f2_orbit):
    rec = enumerate_cosets(f2_orbit, w(f2, "a"), f2.identity(), w(f2, "b a^5 b"), 4)
    x, y, z = w(f2, "a^2"), w(f2, "b a^3"), w(f2, "b a^5 b a")
    assert distance_formula_sum(rec, x, z) <= distance_formula_sum(
        rec, x, y
    ) + distance_formula_sum(rec, y, z)


# --- linear order -----------------------------------------------------------------


def test_linear_order_single_coset(f2, f2_orbit):
    rec = enumerate_cosets(f2_orbit, w(f2, "a"), f2.identity(), w(f2, "b a^5 b"), 4)
    entries, report = linear_order(rec)
    assert len(entries) == 1 and report.consistent


def test_linear_order_two_cosets(f2, f2_orbit):
    rec = enumerate_cosets(f2_orbit, w(f2, "a"), f2.identity(), w(f2, "b a^4 b^2 a^4 b"), 3)
    entries, report = linear_order(rec)
    assert [str(e.axis.rep) for e in entries] == ["b", "b a^4 b^2"]
    assert report.consistent


# --- lower bound ------------------------------------------------------------------


def test_lower_bound_examples(f2, f2_orbit):
    e = f2.identity()
    res0 = lower_bound_check(f2_orbit, w(f2, "a"), e, e, 4)
    assert (res0.lhs, res0.rhs, res0.passed) == (0, 0.0, True)
    res = lower_bound_check(f2_orbit, w(f2, "a"), e, w(f2, "b a^5 b"), 4)
    assert (res.lhs, res.rhs, res.passed) == (7, 2.5, True)


# --- pivot ------------------------------------------------------------------------


def test_pivot_zero_when_already_far(f2, f2_orbit):
    far_axis = axis_of(w(f2, "a")).translate(w(f2, "b a b"))
    alpha = geodesic(f2, f2.identity(), w(f2, "b^-4"))
    res = pivot(f2_orbit, alpha, w(f2, "b^-4"), far_axis, s=3)
    assert res.passed and res.pivot == f2.identity()


def test_pivot_b_powers_uncouple_a_axis(f2, f2_orbit):
    ax = axis_of(w(f2, "a"))
    alpha = geodesic(f2, f2.identity(), w(f2, "a^8"))
    res = pivot(f2_orbit, alpha, w(f2, "a^8"), ax, s=3, bound=2)
    assert res.passed
    assert abs(res.pivot.letters[0]) == 2  # a b-power move
    assert max(res.values) <= 2



@pytest.mark.parametrize("bound", [-1, float("inf"), float("nan")])
def test_pivot_refuses_a_bound_before_searching(monkeypatch, f2, f2_orbit, bound):
    import ggtlab.projections

    def fail(*args, **kwargs):
        raise AssertionError("pivot searched for a refused bound")

    monkeypatch.setattr(ggtlab.projections, "ball", fail)
    monkeypatch.setattr(ggtlab.projections, "coset_distance", fail)
    alpha = geodesic(f2, f2.identity(), w(f2, "a^3"))
    with pytest.raises(GroupError, match="bound"):
        pivot(f2_orbit, alpha, w(f2, "a^3"), axis_of(w(f2, "a")), s=3, bound=bound)

def test_pivot_bass_serre(z2z, bs_orbit):
    from ggtlab.groups import geodesic as geo

    ax_yz = axis_of(w(z2z, "y z"))
    alpha = geo(z2z, z2z.identity(), w(z2z, "x z x z"))
    res = pivot(bs_orbit, alpha, w(z2z, "x z x z"), ax_yz, s=4, bound=4)
    assert res.passed and max(res.values) <= 4


# --- golden pins --------------------------------------------------------------
# sha256 digests recorded before the coset walk, the nearest-point scan and the
# line-position rule each became one implementation; the outputs must not move


def _sha(lines) -> str:
    import hashlib

    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _projection_lines(orbit, axes, xs, target=None):
    for ax in axes:
        for x in xs:
            v = project_to_set(orbit, x, ax if target is None else target)
            yield f"{ax} {x} {[str(p) for p in v.points]} {v.distance} {v.method} {v.window}"


def test_golden_scan_projections(z2z, z2z_by_z, bs_orbit):
    from ggtlab.spaces import top_level_orbit

    roots = ["x z", "y z^-1", "x y z", "z x^-1 z"]
    axes = [axis_of(w(z2z, r)).translate(w(z2z, h)) for r in roots for h in ("e", "z y", "x^-1 z")]
    bs_lines = list(_projection_lines(bs_orbit, axes, ball(z2z, z2z.identity(), 3)))
    prod_orbit = top_level_orbit(z2z_by_z)
    prod_axes = [axis_of(w(z2z_by_z, r)) for r in ("x z", "x z t", "y z t^-2", "x z x^-1 z t")]
    prod_lines = list(_projection_lines(prod_orbit, prod_axes, ball(z2z_by_z, z2z_by_z.identity(), 2)))
    finite = ball(z2z, w(z2z, "z x"), 2)
    finite_lines = list(_projection_lines(bs_orbit, ["set"], ball(z2z, z2z.identity(), 3), finite))
    assert {ln.split()[-2] for ln in bs_lines + prod_lines} == {"scan-axis"}
    assert {ln.split()[-2] for ln in finite_lines} == {"scan-finite"}
    assert (_sha(bs_lines), _sha(prod_lines), _sha(finite_lines)) == (
        "352d0abf20c847c31c9bd0cd0d0413e2b41a0fbeee872511510adce03f11551b",
        "5c7d8b1fc6445264ee91466e5044da0c33ac9e085d2d0d89108772bc1c939960",
        "297955792dcaf9906e80237d9512a37548921d6d7638f003c87b7e6baf12b2a7",
    )


# --- the free-group coset key --------------------------------------------------

# proper powers (a^2, (ab)^2) and roots that are not cyclically reduced (they
# walk the coset) next to random ones
_FIXED_ROOTS = [(1,), (1, 1), (1, 2), (1, 2, 1, 2), (1, 2, -1), (-2, 1, 2), (1, -2, -2, -1)]
_free_letters = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=10)


def _walk_minimum(root: Word, h: Word) -> tuple[int, ...]:
    from ggtlab.projections import _coset_walk

    return min(_coset_walk(h, root, 2 * len(h) + 4), key=Word.sort_key).letters


@given(
    st.sampled_from(["F2", "F3"]),
    st.one_of(st.sampled_from(_FIXED_ROOTS), _free_letters.filter(lambda r: 1 <= len(r) <= 4)),
    _free_letters,
    st.integers(0, 10),
)
@settings(max_examples=400, deadline=None)
def test_coset_key_closed_form_matches_walk(desc, root_raw, u_raw, t):
    from ggtlab.projections import coset_rep_key

    m = model_from_descriptor(desc)

    def fit(raw):  # onto the model's letters
        return [(abs(x) - 1) % m.rank + 1 if x > 0 else -((abs(x) - 1) % m.rank + 1) for x in raw]

    root = normal_form(m, fit(root_raw))
    assume(not root.is_identity())
    # h ends with the inverse of the first t letters of r r r ..., so about t
    # letters cancel against the coset's direction: t = |r|/2 (mod |r|) ties
    # h r^k0 with h r^(k0+1)
    r = root.letters
    h = normal_form(m, fit(u_raw) + [-r[i % len(r)] for i in reversed(range(t))])
    assume(len(h) <= 10)
    assert coset_rep_key(root, h) == _walk_minimum(root, h)


def test_coset_key_ties_break_by_sort_key(f2):
    from ggtlab.projections import coset_rep_key

    ab = w(f2, "a b")
    # a^-1 and a^-1 (a b) = b have one letter each; so do b and b (a b)^-1 = a^-1
    for h in ("a^-1", "b", "b^2 a^-1", "b a b a^-1"):
        assert coset_rep_key(ab, w(f2, h)) == _walk_minimum(ab, w(f2, h))
    assert coset_rep_key(ab, w(f2, "a^-1")) == coset_rep_key(ab, w(f2, "b")) == (-1,)
    # a proper power: b^-1 a^-1 against b^-1 a^-1 (a b)^2 = a b
    assert coset_rep_key(w(f2, "a b a b"), w(f2, "b^-1 a^-1")) == (1, 2)


def test_golden_coset_keys_and_axis_points():
    from ggtlab.projections import coset_rep_key

    lines = []
    for desc in ("F2", "Z^2", "Z^2 * Z", "(Z^2 * Z) x Z"):
        model = model_from_descriptor(desc)
        roots = [r for r in ball(model, model.identity(), 2) if not r.is_identity()][::3]
        for r in roots:
            for h in ball(model, model.identity(), 2):
                lines.append(f"{desc} {r} {h} {coset_rep_key(r, h)}")
            ax = make_axis(model, r, roots[0])
            lines.append(f"{desc} {ax} {[str(p) for p in ax.points(4)]}")
    assert _sha(lines) == "6be35263e23ee413bd6802f758b160f6821c0b6fc6921eabf3a9b7df8286719b"


# --- golden pins at the defaults -------------------------------------------------
# recorded before the settings that no caller passes were removed


def test_golden_pivots(f2, z2z, f2_orbit, bs_orbit):
    lines = []
    cases = [
        (f2_orbit, axis_of(w(f2, "a")).translate(w(f2, "b a b")), geodesic(f2, f2.identity(), w(f2, "b^-4"))),
        (f2_orbit, axis_of(w(f2, "a")), geodesic(f2, f2.identity(), w(f2, "a^8"))),
        (f2_orbit, axis_of(w(f2, "a b")), geodesic(f2, w(f2, "b"), w(f2, "b a b a b"))),
        (bs_orbit, axis_of(w(z2z, "y z")), geodesic(z2z, z2z.identity(), w(z2z, "x z x z"))),
    ]
    for orbit, ax, alpha in cases:
        for q in (alpha[-1], alpha[(len(alpha) - 1) // 2]):
            for s, bound in ((2, 0), (3, 2), (3, 4)):
                res = pivot(orbit, alpha, q, ax, s=s, bound=bound)
                lines.append(f"{res.pivot} {res.values} {res.passed} {res.examined}")
    assert _sha(lines) == (
        "b9ebdf4948b39fd44e63eee13d1d239869d81ad93d1b7b9de2c7e2f47cc2b244"
    )


def test_golden_linear_orders(f2, f2_orbit):
    # re-recorded without the partial Bass-Serre record, whose search is now
    # refused; the three Cayley records' lines are unchanged
    records = [
        enumerate_cosets(f2_orbit, w(f2, "a"), f2.identity(), w(f2, "b a^5 b"), 4),
        enumerate_cosets(f2_orbit, w(f2, "a"), f2.identity(), w(f2, "b a^4 b^2 a^4 b"), 3),
        enumerate_cosets(f2_orbit, w(f2, "a b"), w(f2, "b"), w(f2, "a b a b a b^-1 a b a b a"), 4),
    ]
    lines = []
    for rec in records:
        entries, report = linear_order(rec)
        lines += [f"{e.axis} {e.value} {e.position} {e.proj_o} {e.proj_p}" for e in entries]
        lines.append(f"{report.pairs} {report.disagreements}")
    assert _sha(lines) == (
        "9fddcba6fa35ad4c51bc8ce0b675a31b29d8ee607467bb53c8a60476e52a01e3"
    )


def test_golden_axis_pools(f2):
    # sha256 of the translate-pool lines alone, re-recorded when the pools
    # of distinct lines were removed; the translate pools must not move
    lines = []
    for seed in (0, 1, 2, 7):
        for g in ("a", "a b", "b a^-1 b"):
            lines.append(str([str(ax) for ax in translate_axis_pool(w(f2, g), 6, seed)]))
    assert _sha(lines) == (
        "f1a15befce0842d4285186bf9abef28b06bde5916c522464b59f9ba319434f60"
    )


def test_translate_pool_larger_than_the_ball_offers_raises(f2):
    import time

    start = time.perf_counter()
    with pytest.raises(GroupError, match="distinct translates"):
        translate_axis_pool(w(f2, "a"), 10**4, 0)
    assert time.perf_counter() - start < 1.0
