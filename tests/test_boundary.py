"""Boundary descriptors, tree medians, cross-ratios and QI distortion."""

import itertools

import pytest

from ggtlab.boundary import (
    BoundaryError,
    cross_ratio,
    cross_ratio_distortion,
    make_boundary_point,
    parse_boundary_point,
    random_boundary_points,
    tripod_centers,
)
from ggtlab.chains import FiniteSwap, GeneratorPermutation, LeftTranslation, branch_swap
from ggtlab.groups import word_distance

from conftest import w


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
    c = tripod_centers(f2, ends["a"], ends["b"], ends["ba"])
    # tripod at the root: all three rays separate at e... b.(a) shares b with b^inf
    assert isinstance(c.points, tuple)


def test_center_examples(f2, ends):
    assert tripod_centers(f2, ends["a"], ends["b"], ends["ab"]).points == (w(f2, "a"),)
    assert tripod_centers(f2, ends["a"], ends["b"], ends["ba"]).points == (w(f2, "b"),)


def test_center_distinctness_required(f2, ends):
    with pytest.raises(BoundaryError):
        tripod_centers(f2, ends["a"], ends["a"], ends["b"])


def test_center_thickened(f2, ends):
    c = tripod_centers(f2, ends["a"], ends["b"], ends["ab"], bound=1)
    assert w(f2, "a") in c.points and len(c.points) > 1
    assert c.diameter <= 2


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
    import numpy as np

    perm = GeneratorPermutation(f2, (2, 1))
    pts = random_boundary_points(f2, 10, seed=5)
    rng = np.random.default_rng(1)
    for _ in range(60):
        idx = rng.choice(len(pts), 4, replace=False)
        a, b, c, d = (pts[i] for i in idx)
        res = cross_ratio_distortion(f2, perm, [(a, b, c, d)])
        if res.pairs:
            base, img = res.pairs[0]
            assert base == img


def test_distortion_identity_and_translation(f2):
    pts = random_boundary_points(f2, 8, seed=11)
    quads = [tuple(pts[i] for i in c) for c in itertools.combinations(range(8), 4)][:40]
    ident = LeftTranslation(f2, f2.identity())
    res = cross_ratio_distortion(f2, ident, quads)
    assert (res.lambda_prime, res.eps_prime) == (1.0, 0)
    trans = LeftTranslation(f2, w(f2, "a b"))
    res2 = cross_ratio_distortion(f2, trans, quads)
    assert res2.eps_prime <= 2 * 2  # centers move by at most |g|


def test_distortion_bounded_swap(f2):
    swap = FiniteSwap(f2, ((f2.identity(), w(f2, "a")),))  # displacement 1
    pts = random_boundary_points(f2, 10, seed=17)
    quads = [tuple(pts[i] for i in c) for c in itertools.combinations(range(10), 4)][:60]
    res = cross_ratio_distortion(f2, swap, quads)
    assert res.eps_prime <= 2
    res2 = cross_ratio_distortion(f2, branch_swap(f2), quads)
    assert res2.eps_prime <= 2  # isometric relabel: cross-ratios preserved


def test_golden_cross_ratios_and_centers(f2):
    # sha256 recorded before `cross_ratio` lost its unused `bound`
    import hashlib
    from itertools import combinations

    pts = random_boundary_points(f2, 7, seed=23)
    lines = []
    for a, b, c, d in combinations(pts, 4):
        lines.append(f"{cross_ratio(f2, a, b, c, d)} {cross_ratio(f2, b, d, a, c)}")
    for a, b, c in combinations(pts, 3):
        for bound in (0, 1, 2, 3):
            cs = tripod_centers(f2, a, b, c, bound)
            lines.append(f"{[str(p) for p in cs.points]} {cs.diameter}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "92987af4b1a3245d4ff64e1c5392347914b6c0f7852bd11e5e4db6dc4d1284ff"
    )
