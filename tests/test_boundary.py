"""Boundary descriptors, tree medians, cross-ratios and their invariance
under tree isometries."""

import itertools

import numpy as np
import pytest

from ggtlab.boundary import (
    BoundaryError,
    BoundaryPoint,
    cross_ratio,
    make_boundary_point,
    parse_boundary_point,
    tripod_center,
)
from ggtlab.chains import GeneratorPermutation, branch_swap
from ggtlab.groups import Word, ball, word_distance

from conftest import w


def random_boundary_points(model, count: int, seed: int) -> list[BoundaryPoint]:
    """Distinct random eventually periodic rays with short descriptors."""
    rng = np.random.default_rng(seed)
    prefixes = ball(model, model.identity(), 2)
    periods = [w for w in ball(model, model.identity(), 2) if not w.is_identity()]
    periods = [w for w in periods if not w.letters or w.letters[0] != -w.letters[-1]]
    out: list[BoundaryPoint] = []
    seen: set = set()
    while len(out) < count:
        pre = prefixes[int(rng.integers(len(prefixes)))]
        per = periods[int(rng.integers(len(periods)))]
        try:
            bp = make_boundary_point(model, pre, per)
        except BoundaryError:
            continue
        key = (bp.prefix, bp.period)
        if key not in seen:
            seen.add(key)
            out.append(bp)
    return out


def image_point(model, f, bp: BoundaryPoint) -> BoundaryPoint:
    """The end f(bp) for a tree isometry f that maps the ray's letters
    through `f` (a generator permutation or a branch swap)."""
    ray = Word(model, bp.prefix + bp.period * 2)
    head = len(bp.prefix)
    letters = f(ray).letters
    return make_boundary_point(model, Word(model, letters[:head]), Word(model, letters[head:][: len(bp.period)]))


@pytest.fixture(scope="module")
def ends(f2):
    mk = lambda p, v: make_boundary_point(f2, w(f2, p), w(f2, v))  # noqa: E731
    return {
        "a": mk("e", "a"),
        "b": mk("e", "b"),
        "ab": mk("a", "b"),
        "ba": mk("b", "a"),
    }


def test_parse_and_format(f2):
    bp = parse_boundary_point(f2, "b.(a)")
    assert bp.prefix == (2,) and bp.period == (1,)
    assert str(bp) == "b.(a)"
    assert str(parse_boundary_point(f2, "(a b)")) == ".(a b)"


def test_canonicalization(f2):
    # prefix absorbed into the period, period reduced to the primitive block
    bp = make_boundary_point(f2, w(f2, "a"), w(f2, "a"))
    assert bp.prefix == () and bp.period == (1,)
    bp2 = make_boundary_point(f2, f2.identity(), w(f2, "a b a b"))
    assert bp2.period == (1, 2)


def test_collapsing_descriptor_rejected(f2):
    with pytest.raises(BoundaryError):
        make_boundary_point(f2, f2.identity(), w(f2, "a b a^-1") * w(f2, "a b^-1 a^-1"))


def test_ray_vertices_are_geodesic(f2, ends):
    for bp in ends.values():
        for t in range(8):
            assert len(bp.vertex(t)) == t
        for t in range(7):
            assert word_distance(f2, bp.vertex(t), bp.vertex(t + 1)) == 1


def test_tripod_center_symmetric(f2, ends):
    # the median does not depend on the order of the three ends
    triple = (ends["a"], ends["b"], ends["ba"])
    centers = {tripod_center(f2, *p) for p in itertools.permutations(triple)}
    assert centers == {w(f2, "b")}


def test_center_examples(f2, ends):
    assert tripod_center(f2, ends["a"], ends["b"], ends["ab"]) == w(f2, "a")
    assert tripod_center(f2, ends["a"], ends["b"], ends["ba"]) == w(f2, "b")


def test_center_distinctness_required(f2, ends):
    with pytest.raises(BoundaryError):
        tripod_center(f2, ends["a"], ends["a"], ends["b"])


def test_cross_ratio_examples(f2, ends):
    assert cross_ratio(f2, ends["a"], ends["b"], ends["ab"], ends["ba"]) == 0
    assert cross_ratio(f2, ends["a"], ends["ab"], ends["b"], ends["ba"]) == 2


def test_cross_ratio_coincident_rejected(f2, ends):
    with pytest.raises(BoundaryError):
        cross_ratio(f2, ends["a"], ends["b"], ends["ab"], ends["b"])


def test_cross_ratio_symmetries(f2):
    pts = random_boundary_points(f2, 8, seed=3)
    count = 0
    for quad in itertools.permutations(pts, 4):
        a, b, c, d = quad
        v = cross_ratio(f2, a, b, c, d)
        assert v == cross_ratio(f2, c, b, a, d)
        assert v == cross_ratio(f2, c, d, a, b)
        count += 1
        if count >= 40:
            break


def test_cross_ratio_invariant_under_letter_permutation(f2):
    perm = GeneratorPermutation(f2, (2, 1))
    pts = random_boundary_points(f2, 10, seed=5)
    rng = np.random.default_rng(1)
    for _ in range(60):
        quad = [pts[i] for i in rng.choice(len(pts), 4, replace=False)]
        moved = [image_point(f2, perm, p) for p in quad]
        assert cross_ratio(f2, *moved) == cross_ratio(f2, *quad)


def test_distortion_identity_and_translation(f2):
    # cross-ratios are built from tree medians, so an isometry moves none of
    # them: the translated quadruple g.a, g.b, g.c, g.d keeps every value
    pts = random_boundary_points(f2, 8, seed=11)
    quads = [tuple(pts[i] for i in c) for c in itertools.combinations(range(8), 4)][:40]
    for g in (f2.identity(), w(f2, "a b"), w(f2, "b^-1 a^2")):
        for quad in quads:
            moved = [make_boundary_point(f2, g * Word(f2, p.prefix), Word(f2, p.period)) for p in quad]
            assert cross_ratio(f2, *moved) == cross_ratio(f2, *quad)


def test_distortion_bounded_swap(f2):
    # the branch swap is a tree automorphism fixing e: no cross-ratio moves
    swap = branch_swap(f2)
    pts = random_boundary_points(f2, 10, seed=17)
    quads = [tuple(pts[i] for i in c) for c in itertools.combinations(range(10), 4)][:60]
    moved_any = False
    for quad in quads:
        moved = [image_point(f2, swap, p) for p in quad]
        moved_any = moved_any or moved != list(quad)
        assert cross_ratio(f2, *moved) == cross_ratio(f2, *quad)
    assert moved_any


def test_golden_cross_ratios_and_centers(f2):
    # sha256 of the cross-ratios of every quadruple and the center of every
    # triple of seven random ends
    import hashlib
    from itertools import combinations

    pts = random_boundary_points(f2, 7, seed=23)
    lines = []
    for a, b, c, d in combinations(pts, 4):
        lines.append(f"{cross_ratio(f2, a, b, c, d)} {cross_ratio(f2, b, d, a, c)}")
    for a, b, c in combinations(pts, 3):
        lines.append(str(tripod_center(f2, a, b, c)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "a4c500e1707f4eebe603d21d87b1a253d0f8df4b3bfadab3414afa31195be2c1"
    )
